package strdist

import "math/bits"

// Sig returns a 64-bit character signature of a token. Runes fall into 32
// classes, c = r & 31; bit c is set when class c occurs at least once and
// bit 32+c when it occurs at least twice.
func Sig(rs []rune) uint64 {
	var lo, hi uint64
	for _, r := range rs {
		b := uint64(1) << (uint32(r) & 31)
		hi |= lo & b
		lo |= b
	}
	return lo | hi<<32
}

// SigLowerBound returns a lower bound on LD(a, b) from the two tokens'
// signatures and rune lengths alone: max(Δ, ⌈(D+Δ)/2⌉) with
// D = popcount(sa ^ sb) and Δ = |la - lb|.
//
// Proof. Let n_c(s) count the runes of class c in s. Each signature bit is
// a saturated level of one n_c, so D <= Σ_c |n_c(a) - n_c(b)|; several
// characters hashing into one class only merge terms of that sum, which
// cannot raise it. An insertion or deletion moves the sum by at most 1, a
// substitution by at most 2, so a script of I indels and S substitutions
// turning a into b has D <= I + 2S, and I >= Δ since only indels change the
// length. Hence LD = I + S >= max(I, (D+I)/2) >= max(Δ, (D+Δ)/2). Nothing
// is assumed of the runes (astral, combining; beyond 32 distinct characters
// collisions only weaken the bound), and ε has signature 0, for which
// D <= |a| and the bound is exactly |a| = LD(a, ε).
func SigLowerBound(sa, sb uint64, la, lb int) int {
	delta := la - lb
	if delta < 0 {
		delta = -delta
	}
	return max(delta, (bits.OnesCount64(sa^sb)+delta+1)/2)
}
