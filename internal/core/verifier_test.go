package core

import (
	"testing"
	"testing/quick"
)

// TestBoundedEquivalenceSLD: for random token multisets and every budget
// around the true value, SLDBounded agrees with SLD whenever the true
// value is within budget and correctly reports exceeded otherwise.
func TestBoundedEquivalenceSLD(t *testing.T) {
	var v Verifier
	f := func(a, b genTS) bool {
		want := SLD(a.TS, b.TS)
		for max := -1; max <= want+2; max++ {
			got, ok := v.SLDBounded(a.TS, b.TS, max)
			if max < 0 || want <= max {
				if !ok || got != want {
					return false
				}
			} else if ok || got <= max {
				return false
			}
		}
		// The convenience form must agree with the engine.
		if got, ok := SLDBounded(a.TS, b.TS, want); !ok || got != want {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestBoundedEquivalenceVerify: Verifier.Verify reaches the same
// accept/reject decision as the exact pipeline (SLD + WithinNSLD) at
// random thresholds, reporting the exact SLD for accepted pairs, for both
// the Hungarian and greedy aligners.
func TestBoundedEquivalenceVerify(t *testing.T) {
	thresholds := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8}
	var exactV, greedyV Verifier
	greedyV.Greedy = true
	f := func(a, b genTS) bool {
		la, lb := a.TS.AggregateLen(), b.TS.AggregateLen()
		for _, th := range thresholds {
			wantSLD := SLD(a.TS, b.TS)
			wantIn := WithinNSLD(wantSLD, la, lb, th)
			sld, within, _ := exactV.Verify(a.TS, b.TS, th)
			if within != wantIn || (within && sld != wantSLD) {
				return false
			}
			wantG := SLDGreedy(a.TS, b.TS)
			wantGIn := WithinNSLD(wantG, la, lb, th)
			gsld, gwithin, _ := greedyV.Verify(a.TS, b.TS, th)
			if gwithin != wantGIn || (gwithin && gsld != wantG) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestMaxSLDWithinBoundary: the budget is exactly the WithinNSLD
// boundary — sld <= budget iff WithinNSLD(sld) — for a sweep of lengths
// and thresholds including exact rational boundary cases.
func TestMaxSLDWithinBoundary(t *testing.T) {
	for _, th := range []float64{0, 0.1, 0.15, 0.2, 1.0 / 3, 0.5, 0.9, 0.99} {
		for la := 0; la <= 40; la += 3 {
			for lb := 0; lb <= 40; lb += 4 {
				budget := MaxSLDWithin(th, la, lb)
				if budget < 0 {
					t.Fatalf("t=%.3f la=%d lb=%d: negative budget %d", th, la, lb, budget)
				}
				if !WithinNSLD(budget, la, lb, th) {
					t.Fatalf("t=%.3f la=%d lb=%d: budget %d itself not within", th, la, lb, budget)
				}
				if WithinNSLD(budget+1, la, lb, th) {
					t.Fatalf("t=%.3f la=%d lb=%d: budget %d not maximal", th, la, lb, budget)
				}
			}
		}
	}
}
