package tsj

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/token"
)

// TestSegmentPrefixEquivalenceSelfJoin: the batch self-join, its
// similar-token generator behind the segment prefix filter, returns
// exactly the naive join's pairs at several thresholds under both
// aligners — and the filter actually excludes posting entries from the
// similar-token expansion.
func TestSegmentPrefixEquivalenceSelfJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 41, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	prunedSomewhere := false
	for _, th := range []float64{0.1, 0.25, 0.4} {
		for _, al := range []Aligning{HungarianAligning, GreedyAligning} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.Aligning = al
			_, st := joinOracle(t, fmt.Sprintf("t=%.2f %v", th, al), c, -1, opts)
			if st.SegPrefixPruned > 0 {
				prunedSomewhere = true
			}
		}
	}
	if !prunedSomewhere {
		t.Fatal("SegPrefixPruned never populated across the sweep")
	}
}

// TestSegmentPrefixEquivalenceBipartite is the bipartite counterpart:
// both dedup strategies, three thresholds, cross-side postings restricted
// on both sides.
func TestSegmentPrefixEquivalenceBipartite(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 42, NumNames: 240})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	boundary := 120
	for _, th := range []float64{0.1, 0.2, 0.35} {
		for _, dd := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.Dedup = dd
			joinOracle(t, fmt.Sprintf("t=%.2f %v", th, dd), c, boundary, opts)
		}
	}
}

// TestSegmentPrefixEquivalenceMaxFreqCutoff: the filter composes with the
// high-frequency-token cutoff M — the similar-token join requires both
// witness tokens kept, and a pair with no shared kept token has both
// prefixes untruncated over kept tokens, so the result set under a finite
// M is exactly the cutoff oracle's.
func TestSegmentPrefixEquivalenceMaxFreqCutoff(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 43, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, maxFreq := range []int{3, 10, 50} {
		for _, th := range []float64{0.15, 0.25, 0.35} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.MaxTokenFreq = maxFreq
			joinOracle(t, fmt.Sprintf("M=%d t=%.2f", maxFreq, th), c, -1, opts)
		}
	}
}

// TestSegmentPrefixEquivalenceFrequencyTies: adversarial corpus where
// every token has the same document frequency, so prefix membership — and
// with it the similar-token postings — is decided entirely by the
// deterministic tie-break. The join must stay exact and reproducible.
func TestSegmentPrefixEquivalenceFrequencyTies(t *testing.T) {
	words := []string{
		"alpha", "bravo", "carol", "delta", "echos", "fotox",
		"golfy", "hotel", "india", "julie", "kilos", "limas",
	}
	var names []string
	n := len(words)
	for i := 0; i < n; i++ {
		names = append(names, words[i]+" "+words[(i+1)%n]+" "+words[(i+2)%n])
	}
	// Near-duplicates reachable only through similar (non-identical)
	// tokens exercise the pruned path under pure tie-breaking.
	names = append(names, "alpho bravx carot", "deltq echoz fotoy")
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, th := range []float64{0.15, 0.3, 0.45} {
		opts := DefaultOptions()
		opts.Threshold = th
		a, _ := joinOracle(t, fmt.Sprintf("t=%.2f", th), c, -1, opts)
		b, _, err := SelfJoin(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("t=%.2f: tie-broken segment-filtered join not reproducible", th)
		}
	}
}

// TestSegmentPrefixEquivalenceCorpus: the persistent-corpus join — whose
// prefix order comes from the corpus's stored live frequencies and
// insertion-order token ids, with deletes in play — returns exactly the
// naive join's live pairs. M = 1000 exceeds every frequency here, so the
// cutoff keeps every token with or without the deleted strings.
func TestSegmentPrefixEquivalenceCorpus(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 44, NumNames: 260})
	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for _, n := range names {
		if _, err := pc.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	deleted := map[int]bool{}
	for _, id := range []token.StringID{3, 77, 130} {
		if err := pc.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[int(id)] = true
	}
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, th := range []float64{0.1, 0.2, 0.35} {
		opts := DefaultOptions()
		opts.Threshold = th
		want := cutoffOracle(c.Strings, -1, opts)
		maps.DeleteFunc(want, func(p [2]int, _ int) bool { return deleted[p[0]] || deleted[p[1]] })
		got, _, err := SelfJoinCorpus(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := equalPairs(want, resultSet(got)); err != nil {
			t.Fatalf("t=%.2f: segment-filtered corpus join: %v", th, err)
		}
	}
}
