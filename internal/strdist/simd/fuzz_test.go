package simd

import (
	"testing"

	"repro/internal/strdist"
)

// sanitizePairs turns arbitrary fuzz strings into a kernel-legal lane
// group: BMP-only runes, shared side lengths (by cyclic per-lane
// mutation of both the probe and candidate base strings, so lanes hold
// genuinely distinct pairs — the cross-probe shape), bounded sizes.
func sanitizePairs(a, b string, capSeed uint16) (pairs []lanePair, la, lb int, ok bool) {
	pa := keepBMP([]rune(a), 32)
	pb := keepBMP([]rune(b), 32)
	if len(pa) == 0 || len(pb) == 0 {
		return nil, 0, 0, false
	}
	pairs = make([]lanePair, Width)
	for l := 0; l < Width; l++ {
		p := make([]rune, len(pa))
		copy(p, pa)
		p[l%len(p)] = rune('b' + l)
		c := make([]rune, len(pb))
		copy(c, pb)
		// Deterministic per-lane mutation keeps lanes distinct without
		// changing the lengths.
		c[l%len(c)] = rune('a' + l)
		pairs[l] = lanePair{probe: p, cand: c, cap: int((capSeed + uint16(l)*3) % 48)}
	}
	return pairs, len(pa), len(pb), true
}

func keepBMP(rs []rune, max int) []rune {
	out := rs[:0]
	for _, r := range rs {
		if r >= 0 && r < 0x10000 {
			out = append(out, r)
		}
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// FuzzLevenshteinSIMDEquivalence asserts the batch kernels equal the
// scalar DP, lane for lane, on arbitrary rune pairs and caps — the
// full kernel always, the banded kernel whenever its preconditions
// (caps <= band, |la-lb| <= band) can be met, in which case the two
// kernels must also agree with each other bit for bit. The checked-in
// seeds double as a regression corpus in plain `go test`; the last
// three are shapes where most lanes die almost immediately and a few
// stay alive, which stress the all-lanes abort boundary.
func FuzzLevenshteinSIMDEquivalence(f *testing.F) {
	f.Add("barak obama", "obama barack", uint16(3))
	f.Add("kernel", "colonel", uint16(0))
	f.Add("aaaa", "aaab", uint16(1))
	f.Add("é✓ürich", "zurich", uint16(5))
	f.Add("x", "y", uint16(40))
	f.Add("mississippi", "mississippi", uint16(2))
	f.Add("qqqqqqqqqqqq", "zzzzzzzzzzzz", uint16(46)) // caps cycle through 0 on some lanes
	f.Add("abcdefghijkl", "mnopqrstuvwx", uint16(45)) // all-distant, tiny caps: abort rows
	f.Add("aaaaaaaaaaaaaaaa", "aaaaaaaaaaaaaaab", uint16(47))
	f.Fuzz(func(t *testing.T, a, b string, capSeed uint16) {
		pairs, la, lb, ok := sanitizePairs(a, b, capSeed)
		if !ok {
			return
		}
		ab, bb, capv := buildPairLanes(pairs, la, lb)
		var row []uint16
		var out [Width]uint16
		LevBatch(ab, la, bb, lb, &capv, &row, &out)
		for l := 0; l < Width; l++ {
			d := strdist.LevenshteinRunes(pairs[l].probe, pairs[l].cand)
			want := d
			if want > pairs[l].cap {
				want = pairs[l].cap + 1
			}
			if int(out[l]) != want {
				t.Fatalf("lane %d: kernel %d, want min(LD=%d, cap=%d + 1) (probe %q cand %q)",
					l, out[l], d, pairs[l].cap, string(pairs[l].probe), string(pairs[l].cand))
			}
		}
		// Banded kernel under its preconditions: band covers every cap
		// and the length gap. Must match the full kernel exactly.
		band := 1
		for _, p := range pairs {
			if p.cap > band {
				band = p.cap
			}
		}
		if la-lb > band || lb-la > band {
			return
		}
		var outB [Width]uint16
		LevBandedBatch(ab, la, bb, lb, band, &capv, &row, &outB)
		if outB != out {
			t.Fatalf("banded %v != full %v (probe %q base %q band %d)", outB, out, a, b, band)
		}
	})
}
