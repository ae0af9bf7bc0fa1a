package strdist

import (
	"math/rand"
	"testing"
)

// randToken draws a short token over a deliberately tiny alphabet so
// random pairs land at every interesting distance, including 0.
func randToken(rng *rand.Rand, maxLen int) []rune {
	n := rng.Intn(maxLen + 1)
	r := make([]rune, n)
	for i := range r {
		r[i] = rune('a' + rng.Intn(4))
	}
	return r
}

// checkBanded runs the banded DP at both row widths — through the entry
// point (uint16 rows below u16Limit) and directly on []int rows — and
// requires each to keep the bounded contract against the exact distance:
// (exact, true) within max, (max+1, false) over it.
func checkBanded(t *testing.T, a, b []rune, max, exact int, rowU *[]uint16, rowI *[]int) {
	t.Helper()
	wd, wok := exact, true
	if exact > max {
		wd, wok = max+1, false
	}
	ud, uok := LevenshteinBoundedScratchU16(a, b, max, rowU)
	id, iok := banded(a, b, max, intInf, rowI)
	if ud != wd || uok != wok || id != wd || iok != wok {
		t.Fatalf("max=%d len(a)=%d len(b)=%d: u16 rows (%d,%v), int rows (%d,%v), want (%d,%v)",
			max, len(a), len(b), ud, uok, id, iok, wd, wok)
	}
}

// TestU16RowEquivalence: the banded DP on uint16 and on []int rows agrees
// with LevenshteinRunes — same distance, same within-bound verdict — on
// randomized token pairs across the full range of bounds, including a
// negative one, max = 0 and bounds far beyond the true distance.
func TestU16RowEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var rowI []int
	var rowU []uint16
	for trial := 0; trial < 5000; trial++ {
		a := randToken(rng, 14)
		b := randToken(rng, 14)
		exact := LevenshteinRunes(a, b)
		for max := -1; max <= exact+3; max++ {
			checkBanded(t, a, b, max, exact, &rowU, &rowI)
		}
	}
}

// TestU16RowOverflowFallback: inputs whose longer side reaches u16Limit
// run the band on []int rows and stay exact (the cell values scale with
// the longer input, so the guard must test it, not the shorter one), and
// a small budget keeps that path banded: two 40,000-rune inputs at
// budget 3 finish at once, where the full matrix has 1.6e9 cells.
func TestU16RowOverflowFallback(t *testing.T) {
	long := make([]rune, 70000)
	for i := range long {
		long[i] = 'x'
	}
	var rowU []uint16
	if d, ok := LevenshteinBoundedScratchU16(long, []rune("abcdefghij"), 70001, &rowU); d != 70000 || !ok {
		t.Fatalf("long-side overflow: got (%d,%v), want (70000,true)", d, ok)
	}
	// a is 40,000 x's; b drops one and turns two into y's. Each edit
	// moves the count of x's by at most one, so LD(a, b) = 3.
	a := long[:40000]
	b := append([]rune(nil), a[:39999]...)
	b[7], b[31000] = 'y', 'y'
	for max, want := range map[int]struct {
		d  int
		ok bool
	}{2: {3, false}, 3: {3, true}, 5: {3, true}} {
		if d, ok := LevenshteinBoundedScratchU16(a, b, max, &rowU); d != want.d || ok != want.ok {
			t.Fatalf("long input at budget %d: got (%d,%v), want (%d,%v)", max, d, ok, want.d, want.ok)
		}
	}
	if rowU != nil {
		t.Fatalf("the long inputs ran on the uint16 row (%d cells)", len(rowU))
	}
}

// TestU16RowEquivalenceLong exercises the band/inf handling on longer,
// highly dissimilar inputs where most of the row sits at the sentinel.
func TestU16RowEquivalenceLong(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var rowI []int
	var rowU []uint16
	for trial := 0; trial < 200; trial++ {
		a := randToken(rng, 120)
		b := randToken(rng, 120)
		exact := LevenshteinRunes(a, b)
		for _, max := range []int{0, 1, 2, 5, 17, 60, 300} {
			checkBanded(t, a, b, max, exact, &rowU, &rowI)
		}
	}
}
