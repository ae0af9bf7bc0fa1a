// Package simd holds the lane-batched Levenshtein kernels that bench/
// probes for its simd.levbatch_ns_per_lane row. One kernel invocation
// sweeps Width independent dynamic programs — Width (probe token,
// candidate token) PAIRS whose sides all share the rune lengths
// (la, lb) — through uint16 DP rows laid out lane-major (a[i*Width+l]
// is rune i of lane l's probe-side token).
//
// Two kernels share the layout:
//
//   - LevBatch sweeps the full la x lb matrix per lane.
//   - LevBandedBatch sweeps only the 2*band+1 diagonal band per row,
//     with the out-of-band sentinel discipline of
//     strdist.LevenshteinBoundedScratchU16.
//
// Both are portable Go, property-tested against the scalar DP
// (TestSIMDEquivalenceKernel, TestSIMDEquivalenceBandedKernel,
// FuzzLevenshteinSIMDEquivalence). No join, matcher or server calls
// them: every pair is verified on its own by core.Verifier.Verify. The
// package stays only until bench/ stops probing it.
package simd

// Width is the number of DP lanes one kernel invocation sweeps.
const Width = 16

// LevBatch computes, for every lane l in [0, Width),
//
//	out[l] = min(LD(a lane l, b lane l), caps[l]+1)
//
// where a and b are lane-major transposed rune matrices of Width
// probe-side tokens of rune length la and Width candidate-side tokens
// of rune length lb (a[i*Width+l] is rune i of lane l's probe token,
// b[j*Width+l] rune j of its candidate token). A result
// out[l] <= caps[l] is the exact Levenshtein distance; out[l] ==
// caps[l]+1 means only LD > caps[l] (the kernel may abort a row early
// once every lane's row minimum exceeds its cap — the same row-minima
// lower bound the scalar banded DP aborts on).
//
// row is caller-owned scratch, grown as needed and retained across
// calls so steady-state invocations allocate nothing.
//
// Preconditions (the caller enforces them): la >= 1, lb >= 1, every rune
// narrowed injectively from the BMP, la+lb < 32768 and every cap below
// 1<<15-1 so no DP cell or cap+1 saturates uint16 arithmetic. Unused
// lanes may carry arbitrary rune data — lanes are fully independent
// except for the all-lanes abort — but their caps must still sit below
// 1<<15-1; out values in unused lanes are unspecified. (The abort can
// only fire once EVERY lane's row minimum exceeds its cap, so a stale
// lane can delay it, never force it while an occupied lane is alive;
// occupied lanes receive min(LD, cap+1) regardless.)
func LevBatch(a []uint16, la int, b []uint16, lb int, caps *[Width]uint16, row *[]uint16, out *[Width]uint16) {
	growKernelRow(row, lb)
	levBatch(a, la, b, lb, caps, *row, out)
}

// LevBandedBatch is LevBatch computing only the diagonal band
// |i-j| <= band of each lane's DP matrix, with cells outside the band
// pinned to the u16Inf sentinel exactly like
// strdist.LevenshteinBoundedScratchU16. The banded sweep overestimates
// any distance that exceeds band and is exact for distances within it,
// so under the additional preconditions
//
//	band >= 1, caps[l] <= band and |la-lb| <= band for every lane
//
// the output contract is identical to LevBatch: out[l] =
// min(LD, caps[l]+1) bit for bit (any edit path of cost <= caps[l] <=
// band stays within the band, so in-band values are exact wherever the
// verdict can depend on them). Per row it touches at most 2*band+1
// cells per lane instead of lb.
func LevBandedBatch(a []uint16, la int, b []uint16, lb int, band int, caps *[Width]uint16, row *[]uint16, out *[Width]uint16) {
	growKernelRow(row, lb)
	levBandedBatch(a, la, b, lb, band, caps, *row, out)
}

// growKernelRow sizes the shared DP scratch to Width*(lb+1) cells.
func growKernelRow(row *[]uint16, lb int) {
	need := Width * (lb + 1)
	if cap(*row) < need {
		c := cap(*row) * 2
		if c < need {
			c = need
		}
		*row = make([]uint16, need, c)
	}
	*row = (*row)[:need]
}
