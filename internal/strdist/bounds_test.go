package strdist

import (
	"math/rand"
	"testing"
)

func TestNLDKnownValues(t *testing.T) {
	// Paper Sec. II-C: NLD("Thomson","Thompson") = 2*1/(7+8+1) = 1/8,
	// NLD("Alex","Alexa") = 2*1/(4+5+1) = 1/5.
	if got, want := NLD("Thomson", "Thompson"), 0.125; got != want {
		t.Errorf("NLD(Thomson, Thompson) = %v, want %v", got, want)
	}
	if got, want := NLD("Alex", "Alexa"), 0.2; got != want {
		t.Errorf("NLD(Alex, Alexa) = %v, want %v", got, want)
	}
	if got := NLD("", ""); got != 0 {
		t.Errorf("NLD of empty strings = %v, want 0", got)
	}
	// Completely disjoint single chars: LD=1, NLD = 2/(1+1+1) = 2/3.
	if got, want := NLD("a", "b"), 2.0/3.0; got != want {
		t.Errorf("NLD(a, b) = %v, want %v", got, want)
	}
	// Empty vs non-empty is always the maximum distance 1 (Lemma 2 extreme).
	if got := NLD("", "abc"); got != 1 {
		t.Errorf("NLD(\"\", abc) = %v, want 1", got)
	}
}

func TestNLDRangeAndLemma3(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		a, b := randomRunes(rng, 12), randomRunes(rng, 12)
		d := NLDRunes(a, b)
		if d < 0 || d > 1 {
			t.Fatalf("NLD(%q,%q) = %v out of [0,1]", string(a), string(b), d)
		}
		// Lemma 3: for |x| <= |y|, 1 - |x|/|y| <= NLD(x, y) <= 2/(|x|/|y| + 2).
		x, y := float64(min(len(a), len(b))), float64(max(len(a), len(b)))
		if y == 0 {
			continue
		}
		if lo := 1 - x/y; d < lo-1e-12 {
			t.Fatalf("Lemma 3 lower bound violated: NLD(%q,%q)=%v < %v", string(a), string(b), d, lo)
		}
		if hi := 2 / (x/y + 2); x > 0 && d > hi+1e-12 {
			t.Fatalf("Lemma 3 upper bound violated: NLD(%q,%q)=%v > %v", string(a), string(b), d, hi)
		}
	}
}

func TestNLDTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		a, b, c := randomRunes(rng, 10), randomRunes(rng, 10), randomRunes(rng, 10)
		ab, bc, ac := NLDRunes(a, b), NLDRunes(b, c), NLDRunes(a, c)
		if ab+bc < ac-1e-12 {
			t.Fatalf("NLD triangle violated: %v + %v < %v for %q %q %q",
				ab, bc, ac, string(a), string(b), string(c))
		}
	}
}

// TestMaxLDWithinIsTightAndSound checks Lemma 8 style bounds: every pair
// within NLD t has LD <= MaxLDWithin, and the bound is achievable (there is
// no smaller universally-correct bound for the rearranged inequality).
func TestMaxLDWithinIsTightAndSound(t *testing.T) {
	thresholds := []float64{0.025, 0.05, 0.1, 0.15, 0.2, 0.225, 0.5}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		a, b := randomRunes(rng, 12), randomRunes(rng, 12)
		d := LevenshteinRunes(a, b)
		for _, th := range thresholds {
			if WithinNLD(d, len(a), len(b), th) {
				if max := MaxLDWithin(th, len(a), len(b)); d > max {
					t.Fatalf("MaxLDWithin(%v, %d, %d) = %d but admissible pair has LD %d",
						th, len(a), len(b), max, d)
				}
			}
		}
	}
	// Exact rational boundary: T = 0.1, |x| = |y| = 19: LD <= 0.1*38/1.9 = 2.
	if got := MaxLDWithin(0.1, 19, 19); got != 2 {
		t.Errorf("MaxLDWithin(0.1,19,19) = %d, want 2", got)
	}
}

func TestMinLenWithinLemma9(t *testing.T) {
	thresholds := []float64{0.025, 0.1, 0.225, 0.4}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 3000; i++ {
		a, b := randomRunes(rng, 12), randomRunes(rng, 12)
		if len(a) > len(b) {
			a, b = b, a
		}
		d := LevenshteinRunes(a, b)
		for _, th := range thresholds {
			if WithinNLD(d, len(a), len(b), th) {
				if min := MinLenWithin(th, len(b)); len(a) < min {
					t.Fatalf("Lemma 9 violated: |x|=%d < MinLenWithin(%v,%d)=%d for pair %q,%q",
						len(a), th, len(b), min, string(a), string(b))
				}
				if max := MaxLenWithin(th, len(a)); len(b) > max {
					t.Fatalf("MaxLenWithin inconsistent: |y|=%d > %d", len(b), max)
				}
			}
		}
	}
	// ceil((1-0.1)*10) = 9.
	if got := MinLenWithin(0.1, 10); got != 9 {
		t.Errorf("MinLenWithin(0.1,10) = %d, want 9", got)
	}
}

// TestWithinNLDConsistency: the banded form the verifiers run — a DP
// bounded by MaxLDWithin, then WithinNLD on the distance it returns —
// decides every pair exactly as the unbanded distance does.
func TestWithinNLDConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var row []uint16
	for i := 0; i < 2000; i++ {
		a, b := randomRunes(rng, 12), randomRunes(rng, 12)
		d := LevenshteinRunes(a, b)
		for _, th := range []float64{0.05, 0.1, 0.2} {
			exact := WithinNLD(d, len(a), len(b), th)
			ld, ok := LevenshteinBoundedScratchU16(a, b, MaxLDWithin(th, len(a), len(b)), &row)
			if got := ok && WithinNLD(ld, len(a), len(b), th); got != exact {
				t.Fatalf("banded check (%q,%q,%v)=%v disagrees with exact form %v (NLD=%v)",
					string(a), string(b), th, got, exact, NLDRunes(a, b))
			}
		}
	}
}
