package tsj

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/namegen"
	"repro/internal/token"
)

// sharedTokenPairs is the raw candidate count of a shared-token generator
// without the prefix filter: every pair of strings co-occurring on a token
// that survives the cutoff maxFreq, once per such token — the cross pairs
// only when nr >= 0.
func sharedTokenPairs(c *token.Corpus, nr, maxFreq int) int64 {
	var side [2][]int64
	side[0], side[1] = make([]int64, c.NumTokens()), make([]int64, c.NumTokens())
	for sid, members := range c.Members {
		s := 0
		if nr >= 0 && sid >= nr {
			s = 1
		}
		for _, tid := range members {
			side[s][tid]++
		}
	}
	var n int64
	for tid, f := range c.Freq {
		if maxFreq > 0 && int(f) > maxFreq {
			continue
		}
		if nr < 0 {
			n += side[0][tid] * (side[0][tid] - 1) / 2
		} else {
			n += side[0][tid] * side[1][tid]
		}
	}
	return n
}

// TestPrefixEquivalenceSelfJoin: the prefix-filtered batch self-join
// returns exactly the naive join's pairs, at several thresholds, under
// both matching modes and both aligners — and the filter actually
// shrinks the candidate stream below the unfiltered generator's.
func TestPrefixEquivalenceSelfJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 31, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	prunedSomewhere := false
	for _, th := range []float64{0.1, 0.25, 0.4} {
		for _, mt := range []Matching{FuzzyTokenMatching, ExactTokenMatching} {
			for _, al := range []Aligning{HungarianAligning, GreedyAligning} {
				opts := DefaultOptions()
				opts.Threshold = th
				opts.Matching = mt
				opts.Aligning = al
				label := fmt.Sprintf("t=%.2f %v %v", th, mt, al)
				_, st := joinOracle(t, label, c, -1, opts)
				if plain := sharedTokenPairs(c, -1, opts.MaxTokenFreq); st.SharedTokenCandidates >= plain {
					t.Fatalf("%s: filter did not shrink shared-token candidates (%d vs %d)",
						label, st.SharedTokenCandidates, plain)
				}
				if st.PrefixPruned > 0 {
					prunedSomewhere = true
				}
			}
		}
	}
	if !prunedSomewhere {
		t.Fatal("PrefixPruned never populated across the sweep")
	}
}

// TestPrefixEquivalenceBipartiteJoin is the bipartite counterpart: both
// dedup strategies, three thresholds.
func TestPrefixEquivalenceBipartiteJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 32, NumNames: 240})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	boundary := 120
	for _, th := range []float64{0.1, 0.2, 0.35} {
		for _, dd := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.Dedup = dd
			label := fmt.Sprintf("t=%.2f %v", th, dd)
			_, st := joinOracle(t, label, c, boundary, opts)
			if plain := sharedTokenPairs(c, boundary, opts.MaxTokenFreq); st.SharedTokenCandidates >= plain {
				t.Fatalf("%s: filter did not shrink candidates (%d vs %d)", label, st.SharedTokenCandidates, plain)
			}
		}
	}
}

// TestPrefixEquivalenceMaxFreqCutoff: the filter composes with the
// high-frequency-token cutoff M — prefixes are computed over kept tokens
// only, so the result set under a finite M is exactly the cutoff
// oracle's.
func TestPrefixEquivalenceMaxFreqCutoff(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 33, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, maxFreq := range []int{3, 10, 50} {
		opts := DefaultOptions()
		opts.Threshold = 0.25
		opts.MaxTokenFreq = maxFreq
		joinOracle(t, fmt.Sprintf("M=%d", maxFreq), c, -1, opts)
	}
}

// TestPrefixEquivalenceFrequencyTies: adversarial corpus where every
// token has the same document frequency, so the global order is decided
// entirely by the deterministic TokenID tie-break. The join must stay
// exact and reproducible.
func TestPrefixEquivalenceFrequencyTies(t *testing.T) {
	// Each token appears exactly twice, across rotated neighbors, so all
	// document frequencies tie at 2 and prefix selection is pure
	// tie-breaking.
	words := []string{
		"alpha", "bravo", "carol", "delta", "echos", "fotox",
		"golfy", "hotel", "india", "julie", "kilos", "limas",
	}
	var names []string
	n := len(words)
	for i := 0; i < n; i++ {
		names = append(names, words[i]+" "+words[(i+1)%n]+" "+words[(i+2)%n])
		// near-duplicates one edit away, sharing the same tokens
	}
	names = append(names, "alpha bravo carol x", "delta echos fotox y")
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
			t.Fatalf("t=%.2f: tie-broken prefix join not reproducible", th)
		}
	}
}
