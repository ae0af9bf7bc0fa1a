package tsj

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/nsldtest"
	"repro/internal/token"
)

// oracleJoins runs SelfJoin and Join (cut at nr) on c under opts, holds
// each to its naive-join reference (self, cross) with check, and returns
// the two runs' stats.
func oracleJoins(t *testing.T, label string, c *token.Corpus, nr int, opts Options, self, cross map[[2]int]int, check func(want, got map[[2]int]int) error) [2]*Stats {
	t.Helper()
	var sts [2]*Stats
	for i, want := range []map[[2]int]int{self, cross} {
		var got []Result
		var err error
		if i == 0 {
			got, sts[i], err = SelfJoin(c, opts)
		} else {
			got, sts[i], err = Join(c, nr, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := check(want, resultSet(got)); err != nil {
			t.Fatalf("%s %s: %v", label, [2]string{"SelfJoin", "Join"}[i], err)
		}
	}
	return sts
}

// equalPairs is the exact joins' relation to the oracle: the same pairs at
// the same SLDs.
func equalPairs(want, got map[[2]int]int) error {
	if !maps.Equal(want, got) {
		return fmt.Errorf("%d pairs, want %d; got⊆want: %v; want⊆got: %v",
			len(got), len(want), nsldtest.Subset(want, got), nsldtest.Subset(got, want))
	}
	return nil
}

// TestOracleEquivalence: SelfJoin and Join return exactly the naive join's
// pairs and SLDs under both dedups and every verify path — staged on the
// kernel where one is live, DisableSIMD's scalar engine, and the unbounded
// reference — with both Sec. III-E filters firing on the way.
func TestOracleEquivalence(t *testing.T) {
	c := nameCorpus(rand.New(rand.NewSource(75)), 160)
	nr := c.NumStrings() / 2
	var lengthPruned, lbPruned int64
	for _, th := range []float64{0.1, 0.2} {
		self, cross := nsldtest.SelfJoin(c.Strings, th, false), nsldtest.Bipartite(c.Strings, nr, th, false)
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			for _, off := range [][2]bool{{false, false}, {true, false}, {false, true}} {
				opts := DefaultOptions()
				opts.Threshold, opts.MaxTokenFreq, opts.Dedup = th, 0, dedup
				opts.DisableSIMD, opts.DisableBoundedVerify = off[0], off[1]
				label := fmt.Sprintf("T=%v %v DisableSIMD=%v DisableBoundedVerify=%v", th, dedup, off[0], off[1])
				for _, st := range oracleJoins(t, label, c, nr, opts, self, cross, equalPairs) {
					lengthPruned += st.LengthPruned
					lbPruned += st.LBPruned
				}
			}
		}
	}
	if lengthPruned == 0 || lbPruned == 0 {
		t.Fatalf("filters idle on this corpus: LengthPruned=%d LBPruned=%d", lengthPruned, lbPruned)
	}
}

// TestOracleEquivalenceSubsets: the approximations only ever lose pairs.
// Exact-token matching, a finite MaxTokenFreq and the greedy aligner
// return subsets of the exact oracle's pairs, at SLDs no lower. Greedy is
// held to the exact oracle, not the greedy one: tsj aligns (Strings[a],
// Strings[b]) with a < b, while nsldtest.Matches puts the later string
// first, and greedy's tie-breaks depend on the side.
func TestOracleEquivalenceSubsets(t *testing.T) {
	c := nameCorpus(rand.New(rand.NewSource(72)), 200)
	nr := c.NumStrings() / 2
	for _, th := range []float64{0.15, 0.225} {
		self, cross := nsldtest.SelfJoin(c.Strings, th, false), nsldtest.Bipartite(c.Strings, nr, th, false)
		for _, approx := range []func(*Options){
			func(o *Options) { o.Matching = ExactTokenMatching },
			func(o *Options) { o.MaxTokenFreq = 5 },
			func(o *Options) { o.Aligning = GreedyAligning },
		} {
			opts := DefaultOptions()
			opts.Threshold, opts.MaxTokenFreq = th, 0
			approx(&opts)
			label := fmt.Sprintf("T=%v M=%d %v %v", th, opts.MaxTokenFreq, opts.Matching, opts.Aligning)
			oracleJoins(t, label, c, nr, opts, self, cross, nsldtest.Subset)
		}
	}
}
