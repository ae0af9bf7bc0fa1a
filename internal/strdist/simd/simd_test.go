package simd

import (
	"math/rand"
	"testing"

	"repro/internal/strdist"
)

// randToken draws a token of exactly n runes from a small alphabet so
// rune collisions (and therefore interesting DP structure) are common.
func randToken(rng *rand.Rand, n int, alphabet []rune) []rune {
	r := make([]rune, n)
	for i := range r {
		r[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return r
}

// lanePair is one (probe token, candidate token, cap) triple occupying
// a kernel lane.
type lanePair struct {
	probe, cand []rune
	cap         int
}

// buildPairLanes transposes pairs (probes of rune length la, candidates
// of rune length lb) into the two lane-major kernel blocks, replicating
// the last pair into unused lanes, and returns the caps vector. Lanes
// carry distinct probes — the cross-probe shape the pair layout exists
// for.
func buildPairLanes(pairs []lanePair, la, lb int) (a, b []uint16, capv [Width]uint16) {
	a = make([]uint16, la*Width)
	b = make([]uint16, lb*Width)
	for l := 0; l < Width; l++ {
		src := l
		if src >= len(pairs) {
			src = len(pairs) - 1
		}
		for i := 0; i < la; i++ {
			a[i*Width+l] = uint16(pairs[src].probe[i])
		}
		for j := 0; j < lb; j++ {
			b[j*Width+l] = uint16(pairs[src].cand[j])
		}
		capv[l] = uint16(pairs[src].cap)
	}
	return a, b, capv
}

// expect is the scalar contract: min(LD, cap+1).
func expect(probe, cand []rune, cap int) int {
	d := strdist.LevenshteinRunes(probe, cand)
	if d > cap {
		return cap + 1
	}
	return d
}

// randPairs draws nc lane pairs with per-lane distinct probes of rune
// length la and candidates of length lb.
func randPairs(rng *rand.Rand, nc, la, lb, maxCap int, alphabet []rune) []lanePair {
	pairs := make([]lanePair, nc)
	for c := range pairs {
		pairs[c] = lanePair{
			probe: randToken(rng, la, alphabet),
			cand:  randToken(rng, lb, alphabet),
			cap:   rng.Intn(maxCap),
		}
	}
	return pairs
}

// TestSIMDEquivalenceKernel drives the full kernel across random lane
// groups — every lane its own (probe, candidate) pair — and asserts it
// agrees with the scalar DP on every lane. This is the family the CI
// equivalence guard requires to run un-skipped.
func TestSIMDEquivalenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []rune("abcdeé✓") // multi-byte but BMP runes included
	var row []uint16
	for iter := 0; iter < 2000; iter++ {
		la := 1 + rng.Intn(16)
		lb := 1 + rng.Intn(16)
		nc := 1 + rng.Intn(Width)
		pairs := randPairs(rng, nc, la, lb, 20, alphabet)
		a, b, capv := buildPairLanes(pairs, la, lb)
		var out [Width]uint16
		LevBatch(a, la, b, lb, &capv, &row, &out)
		for l := 0; l < nc; l++ {
			want := expect(pairs[l].probe, pairs[l].cand, pairs[l].cap)
			if int(out[l]) != want {
				t.Fatalf("iter %d lane %d: kernel %d, want %d (cap %d, probe %q, cand %q)",
					iter, l, out[l], want, pairs[l].cap, string(pairs[l].probe), string(pairs[l].cand))
			}
		}
	}
}

// TestSIMDEquivalenceBandedKernel does the same for the banded kernel
// under its preconditions (caps <= band, |la-lb| <= band) and
// additionally asserts the banded output matches the full kernel's
// bit for bit: both compute exactly min(LD, cap+1) per lane, so the
// band restriction must be unobservable in the results.
func TestSIMDEquivalenceBandedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	alphabet := []rune("abcdeé✓")
	var row []uint16
	for iter := 0; iter < 2000; iter++ {
		band := 1 + rng.Intn(6)
		la := 1 + rng.Intn(16)
		lb := la - band + rng.Intn(2*band+1)
		if lb < 1 {
			lb = 1
		}
		if lb > 16 {
			lb = 16
		}
		nc := 1 + rng.Intn(Width)
		pairs := randPairs(rng, nc, la, lb, band+1, alphabet)
		a, b, capv := buildPairLanes(pairs, la, lb)
		var out, outFull [Width]uint16
		LevBandedBatch(a, la, b, lb, band, &capv, &row, &out)
		LevBatch(a, la, b, lb, &capv, &row, &outFull)
		for l := 0; l < nc; l++ {
			want := expect(pairs[l].probe, pairs[l].cand, pairs[l].cap)
			if int(out[l]) != want {
				t.Fatalf("iter %d lane %d: banded kernel %d, want %d (band %d, cap %d, probe %q, cand %q)",
					iter, l, out[l], want, band, pairs[l].cap, string(pairs[l].probe), string(pairs[l].cand))
			}
			if outFull[l] != out[l] {
				t.Fatalf("iter %d lane %d: full kernel %d != banded %d", iter, l, outFull[l], out[l])
			}
		}
	}
}

// TestSIMDEquivalenceAbortParity forces the early-abort path (tiny
// caps, distant strings) on both kernels and checks they agree with
// each other and with the scalar DP lane for lane.
func TestSIMDEquivalenceAbortParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("xy")
	distant := []rune("qrstuvwz")
	var row []uint16
	for iter := 0; iter < 500; iter++ {
		la := 4 + rng.Intn(12)
		lb := 4 + rng.Intn(12)
		nc := 1 + rng.Intn(Width)
		pairs := make([]lanePair, nc)
		for c := range pairs {
			pairs[c] = lanePair{
				probe: randToken(rng, la, alphabet),
				cand:  randToken(rng, lb, distant),
				cap:   rng.Intn(3), // almost always dead
			}
		}
		a, b, capv := buildPairLanes(pairs, la, lb)
		var out [Width]uint16
		LevBatch(a, la, b, lb, &capv, &row, &out)
		for l := 0; l < nc; l++ {
			want := expect(pairs[l].probe, pairs[l].cand, pairs[l].cap)
			if int(out[l]) != want {
				t.Fatalf("iter %d lane %d: got %d want %d", iter, l, out[l], want)
			}
		}
		// Banded variant over the same pairs where its preconditions hold.
		band := 1
		for _, p := range pairs {
			if p.cap > band {
				band = p.cap
			}
		}
		if la-lb <= band && lb-la <= band {
			var outB [Width]uint16
			LevBandedBatch(a, la, b, lb, band, &capv, &row, &outB)
			if outB != out {
				t.Fatalf("iter %d: banded %v != full %v", iter, outB, out)
			}
		}
	}
}

// TestLevBatchZeroAlloc pins the steady state: a reused row means no
// allocations per kernel invocation, full and banded.
func TestLevBatchZeroAlloc(t *testing.T) {
	pairs := []lanePair{
		{probe: []rune("kernel"), cand: []rune("colonel"), cap: 5},
		{probe: []rune("kernal"), cand: []rune("colonel"), cap: 5},
		{probe: []rune("kernel"), cand: []rune("kernels"), cap: 5},
	}
	a, b, capv := buildPairLanes(pairs, 6, 7)
	var row []uint16
	var out [Width]uint16
	LevBatch(a, 6, b, 7, &capv, &row, &out) // warm the row
	allocs := testing.AllocsPerRun(100, func() {
		LevBatch(a, 6, b, 7, &capv, &row, &out)
	})
	if allocs != 0 {
		t.Fatalf("LevBatch allocates %v/op in steady state, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		LevBandedBatch(a, 6, b, 7, 5, &capv, &row, &out)
	})
	if allocs != 0 {
		t.Fatalf("LevBandedBatch allocates %v/op in steady state, want 0", allocs)
	}
}
