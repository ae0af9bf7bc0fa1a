package strdist

import "math"

// boundEps guards the float->int floor/ceil conversions in the lemma bounds
// below so that exact rational boundary cases (e.g. T = 0.1 with length 20)
// never round in the pruning direction. All bounds are therefore
// conservative: they can only admit a candidate the exact predicate would
// reject, never the reverse, which keeps the generate-filter-verify pipeline
// lossless.
const boundEps = 1e-9

// floorBound computes floor(v) robustly against float noise just below an
// integer value.
func floorBound(v float64) int {
	return int(math.Floor(v + boundEps))
}

// ceilBound computes ceil(v) robustly against float noise just above an
// integer value.
func ceilBound(v float64) int {
	return int(math.Ceil(v - boundEps))
}

// MaxLDWithin returns the largest Levenshtein distance a pair of strings
// with the given lengths can have while still satisfying NLD <= t. It is
// the tight form of Lemma 8: from Definition 2, NLD <= t is equivalent to
// LD <= t*(|x|+|y|)/(2-t).
//
// Lemma 8's two stated cases are relaxations of this bound (substituting
// |x| <= |y| or |x| <= LD+|y|); using the tight form yields strictly fewer
// candidates while remaining lossless.
func MaxLDWithin(t float64, lenA, lenB int) int {
	if t >= 2 {
		// Degenerate: every pair qualifies; LD is at most max(|x|,|y|).
		if lenA > lenB {
			return lenA
		}
		return lenB
	}
	if t < 0 {
		return -1
	}
	return floorBound(t * float64(lenA+lenB) / (2 - t))
}

// MinLenWithin is Lemma 9: for a pair with NLD <= t and |x| <= |y|, the
// shorter length satisfies |x| >= ceil((1-t)*|y|). Pairs whose shorter
// string is below this bound can be pruned without verification (the
// length-condition of Sec. III-D).
func MinLenWithin(t float64, lenLonger int) int {
	if t >= 1 {
		return 0
	}
	m := ceilBound((1 - t) * float64(lenLonger))
	if m < 0 {
		m = 0
	}
	return m
}

// MaxLenWithin is the dual of Lemma 9: for a pair with NLD <= t and
// |x| <= |y|, the longer length satisfies |y| <= floor(|x|/(1-t)). The
// MassJoin length plans and the streaming segment index use it to bound
// the compatible length range.
func MaxLenWithin(t float64, lenShorter int) int {
	if t >= 1 {
		return math.MaxInt32
	}
	return floorBound(float64(lenShorter) / (1 - t))
}
