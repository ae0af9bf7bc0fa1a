package tsjoin

// Verification-engine benchmarks: the bounded, allocation-free verifier
// (core.Verifier) against the exact unbounded path, per-pair and over a
// realistic surviving-candidate workload. Run with
//
//	go test -run '^$' -bench 'SLD|Verify' -benchmem
//
// The bounded verifier must show 0 allocs/op in steady state and lower
// ns/op than the exact path at thresholds <= 0.3.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/token"
)

// benchVerifyPairs enumerates the candidate pairs of a small corpus that
// survive the Sec. III-E filters at threshold t — exactly the population
// the verify stage sees.
func benchVerifyPairs(n int, t float64) (*token.Corpus, [][2]token.StringID) {
	c := benchCorpus(n)
	var pairs [][2]token.StringID
	for i := 0; i < c.NumStrings(); i++ {
		for j := i + 1; j < c.NumStrings(); j++ {
			x, y := c.Strings[i], c.Strings[j]
			if core.LengthPrune(x.AggregateLen(), y.AggregateLen(), t) {
				continue
			}
			if core.LowerBoundPrune(x, y, t) {
				continue
			}
			pairs = append(pairs, [2]token.StringID{token.StringID(i), token.StringID(j)})
		}
	}
	return c, pairs
}

// BenchmarkVerifyExact is the pre-Verifier path: full cost matrix, full
// Hungarian, threshold applied afterwards. Allocates per pair.
func BenchmarkVerifyExact(b *testing.B) {
	for _, th := range []float64{0.1, 0.3} {
		b.Run(fmt.Sprintf("t=%.1f", th), func(b *testing.B) {
			c, pairs := benchVerifyPairs(300, th)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				x, y := c.Strings[p[0]], c.Strings[p[1]]
				sld := core.SLD(x, y)
				_ = core.WithinNSLD(sld, x.AggregateLen(), y.AggregateLen(), th)
			}
		})
	}
}

// BenchmarkVerifyBounded is the threshold-aware engine with per-worker
// scratch: 0 allocs/op in steady state.
func BenchmarkVerifyBounded(b *testing.B) {
	for _, th := range []float64{0.1, 0.3} {
		b.Run(fmt.Sprintf("t=%.1f", th), func(b *testing.B) {
			c, pairs := benchVerifyPairs(300, th)
			var v core.Verifier
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				v.Verify(&c.Strings[p[0]], &c.Strings[p[1]], th)
			}
		})
	}
}

// BenchmarkSLD is the exact setwise distance on a fixed pair (allocating
// cost matrix + Hungarian per call).
func BenchmarkSLD(b *testing.B) {
	x := Tokenize("barak hussein obama jr")
	y := Tokenize("vladimir vladimirovich putin sr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SLD(x, y)
	}
}

// BenchmarkSLDBudget is the same pair under the budget a T=0.1 join
// imposes: the signature pre-pass rejects it before any DP cell or the
// Hungarian runs, with zero allocations.
func BenchmarkSLDBudget(b *testing.B) {
	x := Tokenize("barak hussein obama jr")
	y := Tokenize("vladimir vladimirovich putin sr")
	var v core.Verifier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Verify(&x, &y, 0.1)
	}
}
