package tsj

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/core"
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

// cutoffOracle is nsldtest's reference for a join of strs under opts:
// the naive join with the cutoff's candidate rule, which every engine
// must reproduce exactly at any MaxTokenFreq, matching mode and aligner.
// nr < 0 is the self-join, otherwise the cross pairs of the cut at nr.
func cutoffOracle(strs []token.TokenizedString, nr int, opts Options) map[[2]int]int {
	o := nsldtest.Cutoff{
		T: opts.Threshold, M: opts.MaxTokenFreq,
		Exact: opts.Matching == ExactTokenMatching, Greedy: opts.Aligning == GreedyAligning,
	}
	return o.Join(strs, nr)
}

// joinOracle runs SelfJoin (nr < 0) or Join cut at nr on c under opts,
// fails unless it returns exactly cutoffOracle's pairs and SLDs, and
// returns the join's results and stats.
func joinOracle(t *testing.T, label string, c *token.Corpus, nr int, opts Options) ([]Result, *Stats) {
	t.Helper()
	var got []Result
	var st *Stats
	var err error
	if nr < 0 {
		got, st, err = SelfJoin(c, opts)
	} else {
		got, st, err = Join(c, nr, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := equalPairs(cutoffOracle(c.Strings, nr, opts), resultSet(got)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return got, st
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
// pairs and SLDs under both dedups, with both Sec. III-E filters firing on
// the way. The signature pre-pass decides some of the budget-pruned
// pairs, and only those: 0 < SigPruned <= BudgetPruned.
func TestOracleEquivalence(t *testing.T) {
	c := nameCorpus(rand.New(rand.NewSource(75)), 160)
	nr := c.NumStrings() / 2
	var lengthPruned, lbPruned int64
	for _, th := range []float64{0.1, 0.2} {
		self, cross := nsldtest.SelfJoin(c.Strings, th, false), nsldtest.Bipartite(c.Strings, nr, th, false)
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			opts := DefaultOptions()
			opts.Threshold, opts.MaxTokenFreq, opts.Dedup = th, 0, dedup
			label := fmt.Sprintf("T=%v %v", th, dedup)
			for _, st := range oracleJoins(t, label, c, nr, opts, self, cross, equalPairs) {
				lengthPruned += st.LengthPruned
				lbPruned += st.LBPruned
				if !(0 < st.SigPruned && st.SigPruned <= st.BudgetPruned) {
					t.Fatalf("%s: SigPruned=%d BudgetPruned=%d", label, st.SigPruned, st.BudgetPruned)
				}
			}
		}
	}
	if lengthPruned == 0 || lbPruned == 0 {
		t.Fatalf("filters idle on this corpus: LengthPruned=%d LBPruned=%d", lengthPruned, lbPruned)
	}
}

// denseCorpus builds n strings of 1-4 tokens of 1-4 letters over a
// three-letter alphabet: nearly every pair is a candidate, cost matrices
// are full of equal cells, and token counts differ within most pairs.
func denseCorpus(rng *rand.Rand, n int) *token.Corpus {
	const alpha = "abc"
	strs := make([]token.TokenizedString, n)
	for i := range strs {
		toks := make([]string, 1+rng.Intn(4))
		for j := range toks {
			b := make([]byte, 1+rng.Intn(4))
			for l := range b {
				b[l] = alpha[rng.Intn(len(alpha))]
			}
			toks[j] = string(b)
		}
		strs[i] = token.New(toks)
	}
	return token.BuildCorpusFromTokenized(strs)
}

// TestOracleEquivalenceOrientation: on a corpus where a pair's Pruned flag
// depends on which string is verified first (tied cost cells, unequal
// token counts), both dedups return the oracle's pairs — greedy a subset
// of the exact oracle's — and the same verify funnel, on four reduce
// workers. Grouping on one string keys about half the pairs on their
// larger id, so a reducer that verified with the key string first would
// keep the pairs and move BudgetPruned.
func TestOracleEquivalenceOrientation(t *testing.T) {
	const threshold = 0.5
	c := denseCorpus(rand.New(rand.NewSource(2718)), 320)
	want := nsldtest.SelfJoin(c.Strings, threshold, false)
	for _, align := range []Aligning{HungarianAligning, GreedyAligning} {
		// The property under test must be present in the corpus.
		v := core.Verifier{Greedy: align == GreedyAligning}
		sensitive := 0
		for a := 0; a < c.NumStrings(); a++ {
			for b := a + 1; b < c.NumStrings(); b++ {
				_, _, p1 := v.Verify(&c.Strings[a], &c.Strings[b], threshold)
				_, _, p2 := v.Verify(&c.Strings[b], &c.Strings[a], threshold)
				if p1 != p2 {
					sensitive++
				}
			}
		}
		if sensitive == 0 {
			t.Fatalf("%v: no pair's Pruned flag depends on the orientation; pick a better corpus", align)
		}
		check := equalPairs
		if align == GreedyAligning {
			check = nsldtest.Subset
		}
		var sts []*Stats
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			got, st, err := SelfJoin(c, Options{Threshold: threshold, Aligning: align, Dedup: dedup, Parallelism: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := check(want, resultSet(got)); err != nil {
				t.Fatalf("%v %v: %v", align, dedup, err)
			}
			if int64(len(got)) != st.Results {
				t.Fatalf("%v %v: %d results returned, %d counted", align, dedup, len(got), st.Results)
			}
			sts = append(sts, st)
		}
		a, b := sts[0], sts[1]
		if a.Verified != b.Verified || a.BudgetPruned != b.BudgetPruned || a.SigPruned != b.SigPruned ||
			a.LengthPruned != b.LengthPruned || a.LBPruned != b.LBPruned || a.Results != b.Results {
			t.Fatalf("%v: the dedups disagree on the verify funnel:\n one  %v\n both %v", align, a, b)
		}
		t.Logf("%v: %d orientation-sensitive pairs, %d verified", align, sensitive, a.Verified)
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
