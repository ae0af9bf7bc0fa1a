package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method: q = 0 is the minimum, q = 1 the
// maximum). xs is not modified. It returns NaN for an empty sample, so a
// metric computed from no samples fails the harness's own NaN check rather
// than reading as a fast result.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is the number of samples strictly above the q-quantile position:
// the choosing-metrics rule wants at least ten of them before a percentile
// is worth reporting.
func beyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// spreadPct is max/min - 1 in percent: the canary's round-to-round spread.
func spreadPct(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return (hi/lo - 1) * 100
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(n=4)
// (the "exclusive" method, positions (n+1)/4 and 3(n+1)/4) — the number the
// acceptance check computes over ten runs.
func iqrShare(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 { // p is a 1-based position
		p = math.Max(1, math.Min(float64(len(s)), p))
		lo := int(math.Floor(p))
		hi := int(math.Ceil(p))
		return s[lo-1] + (s[hi-1]-s[lo-1])*(p-float64(lo))
	}
	n := float64(len(s))
	return (at(3*(n+1)/4) - at((n+1)/4)) / median(s)
}
