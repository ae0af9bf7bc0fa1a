package core

import (
	"math/rand"
	"testing"

	"repro/internal/token"
)

func TestHistogramLowerBoundNeverExceedsSLD(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3000; i++ {
		x := randomTS(rng, 5, 6)
		y := randomTS(rng, 5, 6)
		lb := HistogramLowerBound(x.LengthHistogram(), y.LengthHistogram())
		sld := SLD(x, y)
		if lb > sld {
			t.Fatalf("histogram LB %d exceeds SLD %d for %v | %v", lb, sld, x, y)
		}
	}
}

func TestHistogramLowerBoundKnown(t *testing.T) {
	cases := []struct {
		a, b []int
		want int
	}{
		{[]int{4, 5}, []int{4, 5}, 0},
		{[]int{4, 5}, []int{4}, 5},    // one unmatched token of length 5
		{[]int{3}, []int{5}, 2},       // stretch 3 -> 5
		{nil, []int{2, 3}, 5},         // everything unmatched
		{[]int{1, 9}, []int{5, 5}, 8}, // sorted pairing: |1-5| + |9-5|
		{[]int{2, 2, 2}, []int{6}, 8}, // 6 pairs with one 2 (cost 4), two 2s dropped
	}
	for _, c := range cases {
		if got := HistogramLowerBound(c.a, c.b); got != c.want {
			t.Errorf("HistogramLowerBound(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := HistogramLowerBound(c.b, c.a); got != c.want {
			t.Errorf("HistogramLowerBound must be symmetric for %v, %v", c.a, c.b)
		}
	}
}

// TestFiltersAreSafe is the load-bearing guarantee: neither filter ever
// prunes a pair whose true NSLD is within the threshold.
func TestFiltersAreSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	thresholds := []float64{0.025, 0.1, 0.225, 0.5}
	pruneCount := 0
	for i := 0; i < 3000; i++ {
		x := randomTS(rng, 5, 6)
		y := randomTS(rng, 5, 6)
		sld := SLD(x, y)
		for _, T := range thresholds {
			within := WithinNSLD(sld, x.AggregateLen(), y.AggregateLen(), T)
			if LengthPrune(x.AggregateLen(), y.AggregateLen(), T) {
				pruneCount++
				if within {
					t.Fatalf("LengthPrune dropped a true pair: %v | %v at T=%v (NSLD=%v)",
						x, y, T, NSLD(x, y))
				}
			}
			if LowerBoundPrune(x, y, T) {
				pruneCount++
				if within {
					t.Fatalf("LowerBoundPrune dropped a true pair: %v | %v at T=%v (NSLD=%v)",
						x, y, T, NSLD(x, y))
				}
			}
		}
	}
	if pruneCount == 0 {
		t.Fatal("filters never fired; test is vacuous")
	}
}

// TestLowerBoundFilterIsUseful documents that the histogram filter prunes
// strictly more than the length filter on token-count-mismatched pairs.
func TestLowerBoundFilterIsUseful(t *testing.T) {
	// Same aggregate length (so LengthPrune passes) but incompatible
	// shapes: {8} vs {4,4} needs at least 8 edits by the histogram bound
	// wait: sorted pairing 0,4 vs 4,8 -> |0-4| + |4-8| = 8. Here: histA =
	// [8], histB = [4,4]: padded [0,8] vs [4,4] -> 4 + 4 = 8.
	x := ts("aaaaaaaa")
	y := ts("bbbb", "cccc")
	T := 0.2
	if LengthPrune(x.AggregateLen(), y.AggregateLen(), T) {
		t.Fatal("length filter should pass equal aggregate lengths")
	}
	if !LowerBoundPrune(x, y, T) {
		t.Fatal("histogram filter should prune shape-incompatible pair")
	}
}

func TestLengthPruneBoundary(t *testing.T) {
	// T = 0.5, Lb = 10: prune iff La < 5.
	if !LengthPrune(4, 10, 0.5) {
		t.Error("La=4 must be pruned")
	}
	if LengthPrune(5, 10, 0.5) {
		t.Error("La=5 is exactly on the bound and must be kept")
	}
	if LengthPrune(0, 0, 0.5) {
		t.Error("two empty strings must never be pruned")
	}
	// Symmetric in argument order.
	if LengthPrune(10, 5, 0.5) != LengthPrune(5, 10, 0.5) {
		t.Error("LengthPrune must be symmetric")
	}
}

var _ = token.New // keep the import alive if the helper moves
