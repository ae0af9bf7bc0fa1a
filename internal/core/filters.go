package core

import "repro/internal/token"

// The pipeline's lossless lower bounds and where each lives: aggregate
// lengths — LengthPrune (Sec. III-E.1); token-length histograms —
// HistogramLowerBound / LowerBoundPrune (Sec. III-E.2), both here and
// chained by FilterPair ahead of verification; per-token character
// signatures — the Verifier's pre-pass (sigPrune, verifier.go), ahead of
// the first DP cell.

// LengthPrune implements the Sec. III-E.1 filter: by Lemma 6,
// NSLD(x, y) >= 1 - L(x)/L(y) for L(x) <= L(y), so a candidate pair whose
// aggregate lengths alone force the distance above t can be discarded
// before any token comparison. Returns true when the pair can be pruned.
func LengthPrune(aggLenA, aggLenB int, t float64) bool {
	if aggLenA > aggLenB {
		aggLenA, aggLenB = aggLenB, aggLenA
	}
	if aggLenB == 0 {
		return false // two empty strings: distance 0
	}
	// 1 - La/Lb > t  <=>  La < (1-t)*Lb. Evaluate in the multiplied form
	// to avoid division; strict inequality keeps boundary pairs.
	return float64(aggLenA) < (1-t)*float64(aggLenB)-1e-9
}

// HistogramLowerBound returns a provably-safe lower bound on SLD(x, y)
// computed from the token-length histograms alone (the Sec. III-E.2
// distance-lower-bound filter; the paper defers its construction to an
// extended version, so we document ours here).
//
// Derivation: SLD is the min-weight perfect matching of the padded token
// bigraph with weights LD(u, v) >= ||u| - |v||. Replacing every weight by
// that lower bound can only lower the matching weight, and the min-cost
// matching of the |length difference| costs over two padded length
// multisets is achieved by pairing the sorted sequences order-to-order
// (the L1 rearrangement inequality). Hence
//
//	SLD(x, y) >= Σ_i |sortedLensX[i] - sortedLensY[i]|
//
// with both histograms zero-padded to equal size.
func HistogramLowerBound(histA, histB []int) int {
	// Histograms arrive ascending (token.LengthHistogram sorts). Pad the
	// shorter with leading zeros: zeros are the smallest lengths, so the
	// zero-padded sequence remains sorted when zeros are prepended.
	la, lb := len(histA), len(histB)
	k := la
	if lb > k {
		k = lb
	}
	lb0 := k - lb // leading zeros for B
	la0 := k - la // leading zeros for A
	sum := 0
	for i := 0; i < k; i++ {
		var a, b int
		if i >= la0 {
			a = histA[i-la0]
		}
		if i >= lb0 {
			b = histB[i-lb0]
		}
		if a > b {
			sum += a - b
		} else {
			sum += b - a
		}
	}
	return sum
}

// LowerBoundPrune reports whether the pair can be pruned because the
// histogram lower bound already forces NSLD above t. Safe: it never prunes
// a pair with true NSLD <= t, because the bound never exceeds the true SLD
// and NSLD is monotone in SLD for fixed lengths.
func LowerBoundPrune(x, y token.TokenizedString, t float64) bool {
	return lowerBoundPrune(&x, &y, t)
}

// lowerBoundPrune is LowerBoundPrune on pointers, which FilterPair's
// per-candidate calls pass without copying the strings.
func lowerBoundPrune(x, y *token.TokenizedString, t float64) bool {
	lb := HistogramLowerBound(x.LengthHistogram(), y.LengthHistogram())
	return !WithinNSLD(lb, x.AggregateLen(), y.AggregateLen(), t)
}

// Filter names the Sec. III-E filter that rejected a candidate pair.
type Filter uint8

const (
	Admitted          Filter = iota // neither filter fired
	LengthFiltered                  // LengthPrune fired
	HistogramFiltered               // the length filter passed, LowerBoundPrune fired
)

// FilterPair runs the Sec. III-E filter chain on candidate (x, y) — the
// length filter, then the histogram bound — and reports which fired.
func FilterPair(x, y *token.TokenizedString, t float64) Filter {
	if LengthPrune(x.AggregateLen(), y.AggregateLen(), t) {
		return LengthFiltered
	}
	if lowerBoundPrune(x, y, t) {
		return HistogramFiltered
	}
	return Admitted
}
