package tsj

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/token"
)

// TestSegmentPrefixEquivalenceSelfJoin: the batch self-join returns
// identical result sets with the segment prefix filter on and off, at
// several thresholds, under both aligners and with the shared-token
// prefix filter both on and off — and the filter actually shrinks the
// similar-token candidate stream.
func TestSegmentPrefixEquivalenceSelfJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 41, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	prunedSomewhere := false
	shrankSomewhere := false
	for _, th := range []float64{0.1, 0.25, 0.4} {
		for _, al := range []Aligning{HungarianAligning, GreedyAligning} {
			for _, sharedOff := range []bool{false, true} {
				opts := DefaultOptions()
				opts.Threshold = th
				opts.Aligning = al
				opts.DisablePrefixFilter = sharedOff

				opts.DisableSegmentPrefixFilter = true
				plain, pst, err := SelfJoin(c, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.DisableSegmentPrefixFilter = false
				filtered, fst, err := SelfJoin(c, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(plain, filtered) {
					t.Fatalf("t=%.2f %v sharedOff=%v: segment-filtered results differ (%d vs %d pairs)",
						th, al, sharedOff, len(filtered), len(plain))
				}
				if pst.SegPrefixPruned != 0 {
					t.Fatalf("t=%.2f: SegPrefixPruned=%d with the filter disabled", th, pst.SegPrefixPruned)
				}
				if fst.SegPrefixPruned > 0 {
					prunedSomewhere = true
				}
				if fst.SimilarTokenCandidates < pst.SimilarTokenCandidates {
					shrankSomewhere = true
				}
				if fst.SimilarTokenCandidates > pst.SimilarTokenCandidates {
					t.Fatalf("t=%.2f %v: filtering grew similar-token candidates (%d vs %d)",
						th, al, fst.SimilarTokenCandidates, pst.SimilarTokenCandidates)
				}
			}
		}
	}
	if !prunedSomewhere {
		t.Fatal("SegPrefixPruned never populated across the sweep")
	}
	if !shrankSomewhere {
		t.Fatal("the segment prefix filter never shrank the similar-token candidate stream")
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

			opts.DisableSegmentPrefixFilter = true
			plain, pst, err := Join(c, boundary, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DisableSegmentPrefixFilter = false
			filtered, fst, err := Join(c, boundary, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, filtered) {
				t.Fatalf("t=%.2f %v: segment-filtered bipartite results differ (%d vs %d pairs)",
					th, dd, len(filtered), len(plain))
			}
			if fst.SimilarTokenCandidates > pst.SimilarTokenCandidates {
				t.Fatalf("t=%.2f %v: filtering grew similar-token candidates (%d vs %d)",
					th, dd, fst.SimilarTokenCandidates, pst.SimilarTokenCandidates)
			}
		}
	}
}

// TestSegmentPrefixEquivalenceMaxFreqCutoff: the filter composes with the
// high-frequency-token cutoff M — the similar-token join requires both
// witness tokens kept, and a pair with no shared kept token has both
// prefixes untruncated over kept tokens, so the (approximate) result set
// under a finite M is unchanged.
func TestSegmentPrefixEquivalenceMaxFreqCutoff(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 43, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, maxFreq := range []int{3, 10, 50} {
		for _, th := range []float64{0.15, 0.25, 0.35} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.MaxTokenFreq = maxFreq

			opts.DisableSegmentPrefixFilter = true
			plain, _, err := SelfJoin(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.DisableSegmentPrefixFilter = false
			filtered, _, err := SelfJoin(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, filtered) {
				t.Fatalf("M=%d t=%.2f: segment-filtered results differ under the cutoff (%d vs %d pairs)",
					maxFreq, th, len(filtered), len(plain))
			}
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

		opts.DisableSegmentPrefixFilter = true
		plain, _, err := SelfJoin(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DisableSegmentPrefixFilter = false
		a, _, err := SelfJoin(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := SelfJoin(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, a) {
			t.Fatalf("t=%.2f: tie-broken segment-filtered join differs from unfiltered", th)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("t=%.2f: tie-broken segment-filtered join not reproducible", th)
		}
	}
}

// TestSegmentPrefixEquivalenceCorpus: the persistent-corpus join — whose
// prefix order comes from the corpus's stored live frequencies and
// insertion-order token ids, with deletes in play — returns identical
// results with the segment prefix filter on and off.
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
	for _, id := range []token.StringID{3, 77, 130} {
		if err := pc.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, th := range []float64{0.1, 0.2, 0.35} {
		opts := DefaultOptions()
		opts.Threshold = th

		opts.DisableSegmentPrefixFilter = true
		plain, _, err := SelfJoinCorpus(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DisableSegmentPrefixFilter = false
		filtered, _, err := SelfJoinCorpus(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, filtered) {
			t.Fatalf("t=%.2f: segment-filtered corpus join differs (%d vs %d pairs)",
				th, len(filtered), len(plain))
		}
	}
}
