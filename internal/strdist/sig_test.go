package strdist

import (
	"math/rand"
	"slices"
	"testing"
)

// checkSigBound asserts the signature bound's contract on one pair: never
// above the exact distance, symmetric, and exact against itself and ε. It
// reports whether the bound equals the distance.
func checkSigBound(t *testing.T, a, b []rune) (tight bool) {
	t.Helper()
	sa, sb := Sig(a), Sig(b)
	lb := SigLowerBound(sa, sb, len(a), len(b))
	ld := LevenshteinRunes(a, b)
	if lb > ld {
		t.Fatalf("SigLowerBound(%q, %q) = %d exceeds LD = %d", string(a), string(b), lb, ld)
	}
	if rev := SigLowerBound(sb, sa, len(b), len(a)); rev != lb {
		t.Fatalf("SigLowerBound(%q, %q) = %d but %d reversed", string(a), string(b), lb, rev)
	}
	if self := SigLowerBound(sa, sa, len(a), len(a)); self != 0 {
		t.Fatalf("SigLowerBound(%q, itself) = %d, want 0", string(a), self)
	}
	if eps := SigLowerBound(sa, Sig(nil), len(a), 0); eps != len(a) {
		t.Fatalf("SigLowerBound(%q, ε) = %d, want |a| = %d", string(a), eps, len(a))
	}
	return lb == ld
}

// TestSigLowerBound: the bound never exceeds the Levenshtein distance on
// random pairs over alphabets chosen to stress each part of the proof — four
// letters (heavy repeats: the at-least-twice bits), the lowercase letters
// (one class each), letters and digits (distinct characters sharing a class
// under & 31), and runes drawn across the BMP and the astral planes.
func TestSigLowerBound(t *testing.T) {
	astral := func(rng *rand.Rand) rune {
		if rng.Intn(2) == 0 {
			return rune(0x20 + rng.Intn(0xD800-0x20))
		}
		return rune(0x10000 + rng.Intn(0x10FFFF-0x10000))
	}
	from := func(alpha string) func(*rand.Rand) rune {
		rs := []rune(alpha)
		return func(rng *rand.Rand) rune { return rs[rng.Intn(len(rs))] }
	}
	const lower = "abcdefghijklmnopqrstuvwxyz"
	tight := 0
	for _, draw := range []func(*rand.Rand) rune{
		from("abcd"), from(lower), from(lower + "0123456789"), astral,
	} {
		rng := rand.New(rand.NewSource(23))
		for iter := 0; iter < 20000; iter++ {
			a := make([]rune, rng.Intn(13))
			for i := range a {
				a[i] = draw(rng)
			}
			// Half the pairs are a few edits apart, where the bound is
			// closest to the distance; the rest are independent.
			var b []rune
			if rng.Intn(2) == 0 {
				b = make([]rune, rng.Intn(13))
				for i := range b {
					b[i] = draw(rng)
				}
			} else {
				b = append(b, a...)
				for e := rng.Intn(4); e > 0; e-- {
					switch p := rng.Intn(len(b) + 1); {
					case p == len(b) || rng.Intn(3) == 0:
						b = slices.Insert(b, p, draw(rng))
					case rng.Intn(2) == 0:
						b = slices.Delete(b, p, p+1)
					default:
						b[p] = draw(rng)
					}
				}
			}
			if checkSigBound(t, a, b) && len(a) > 0 && len(b) > 0 {
				tight++
			}
		}
	}
	// The bound has to be worth its XOR: on this mix it is exact for a
	// large share of the pairs, not trivially 0.
	if tight < 10000 {
		t.Fatalf("bound equals the distance on only %d of 80000 pairs", tight)
	}
	t.Logf("bound exact on %d of 80000 pairs", tight)
}
