package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/token"
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
// boundary — sld <= budget iff WithinNSLD(sld) — on a dense threshold grid
// (step 0.001 over [0, 1)) plus exact rational boundary cases, for every
// pair of aggregate lengths up to 40.
func TestMaxSLDWithinBoundary(t *testing.T) {
	ths := []float64{1.0 / 3, 2.0 / 3, 1.0 / 7}
	for i := 0; i < 1000; i++ {
		ths = append(ths, float64(i)/1000)
	}
	for _, th := range ths {
		for la := 0; la <= 40; la++ {
			for lb := 0; lb <= 40; lb++ {
				budget := MaxSLDWithin(th, la, lb)
				if budget < 0 {
					t.Fatalf("t=%v la=%d lb=%d: negative budget %d", th, la, lb, budget)
				}
				if !WithinNSLD(budget, la, lb, th) {
					t.Fatalf("t=%v la=%d lb=%d: budget %d itself not within", th, la, lb, budget)
				}
				if WithinNSLD(budget+1, la, lb, th) {
					t.Fatalf("t=%v la=%d lb=%d: budget %d not maximal", th, la, lb, budget)
				}
			}
		}
	}
}

// TestBudgetMemoMatchesMaxSLDWithin: the stager's per-threshold budget
// memo answers MaxSLDWithin for every length sum, in and beyond the memo,
// while the threshold switches back and forth between lookups — a switch
// must drop the old threshold's entries, not serve them.
func TestBudgetMemoMatchesMaxSLDWithin(t *testing.T) {
	var v Verifier
	bs := v.stagerInit()
	rng := rand.New(rand.NewSource(5))
	ths := []float64{0.1, 0.3, 0.1, 1.0 / 3, 0.999, 0, 0.3}
	for round := 0; round < 40; round++ {
		th := ths[round%len(ths)]
		for k := 0; k < 200; k++ {
			la, lb := rng.Intn(batchBudgetCacheLen), rng.Intn(batchBudgetCacheLen/4)
			if got, want := bs.budgetFor(th, la+lb), MaxSLDWithin(th, la, lb); got != want {
				t.Fatalf("round %d t=%v la=%d lb=%d: memo %d, MaxSLDWithin %d", round, th, la, lb, got, want)
			}
		}
	}
}

// sigBoundTS draws 0-12 tokens, with replacement, from a pool of a dozen
// short words over a five-letter alphabet: duplicate tokens within a string
// and shared tokens across strings are the norm, and two characters share a
// signature class ('a' and 'A' under & 31).
func sigBoundTS(rng *rand.Rand, pool []string) token.TokenizedString {
	toks := make([]string, rng.Intn(13))
	for i := range toks {
		toks[i] = pool[rng.Intn(len(pool))]
	}
	return token.New(toks)
}

// TestBoundedEquivalenceSigBound pins the signature pre-pass to the engines
// it sits in front of, on random multisets with heavy token duplication:
// (a) a pair the pre-pass kills is one buildCost's row-minima abort kills
// on its own, so Pruned cannot move; (b) a pair whose exact SLD — or greedy
// SLD — is within the budget is never killed, and Verify's verdict equals
// the unbounded reference's; (c) Verify, VerifyBatch and StageBatch +
// FlushBatch return the same (SLD, Within, Pruned) triple for every pair,
// pruned ones included, under both aligners.
func TestBoundedEquivalenceSigBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2323))
	const alpha = "abcdA"
	pool := make([]string, 12)
	for i := range pool {
		b := make([]byte, 1+rng.Intn(8))
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		pool[i] = string(b)
	}
	var dead, alive int
	var ctr BatchCounters
	for iter := 0; iter < 300; iter++ {
		x := sigBoundTS(rng, pool)
		ys := make([]*token.TokenizedString, 1+rng.Intn(10))
		for c := range ys {
			y := sigBoundTS(rng, pool)
			if rng.Intn(2) == 0 { // a near copy of the probe: the survivors
				toks := append([]string(nil), x.Tokens...)
				for e := rng.Intn(3); e > 0 && len(toks) > 0; e-- {
					toks[rng.Intn(len(toks))] = pool[rng.Intn(len(pool))]
				}
				y = token.New(toks)
			}
			ys[c] = &y
		}
		for _, th := range []float64{0.05, 0.1, 0.3, 0.6} {
			for _, greedy := range []bool{false, true} {
				var sv, bv, gv Verifier // scalar, batch, staged
				sv.Greedy, bv.Greedy, gv.Greedy = greedy, greedy, greedy
				batch := make([]BatchResult, len(ys))
				staged := make([]BatchResult, len(ys))
				bv.VerifyBatch(x, ys, th, batch, nil)
				gv.StageBatch(x, ys, th, staged)
				gv.StageBatch(x, ys[:1], th, make([]BatchResult, 1)) // a second probe in the same pools
				gv.FlushBatch(&ctr)
				for c, y := range ys {
					b := MaxSLDWithin(th, x.AggregateLen(), y.AggregateLen())
					sld, within, pruned := sv.Verify(x, *y, th)
					want := BatchResult{sld, within, pruned}
					if batch[c] != want || staged[c] != want {
						t.Fatalf("t=%.2f greedy=%v %v | %v: Verify %+v, VerifyBatch %+v, staged %+v",
							th, greedy, x.Tokens, y.Tokens, want, batch[c], staged[c])
					}
					exact := SLD(x, *y)
					ref := exact
					if greedy {
						ref = SLDGreedy(x, *y)
					}
					if within != (ref <= b) || within && sld != ref {
						t.Fatalf("t=%.2f greedy=%v %v | %v: Verify (%d, %v), reference SLD %d against budget %d",
							th, greedy, x.Tokens, y.Tokens, sld, within, ref, b)
					}
					if x.Count() == 0 || y.Count() == 0 {
						continue // trivial sides never reach the pre-pass
					}
					xr, yr := x.RuneSlices(), y.RuneSlices()
					lower, isDead := sigPrune(xr, yr, tokenSigs(nil, xr), tokenSigs(nil, yr), b)
					if !isDead {
						alive++
						continue
					}
					dead++
					if lower <= b || exact <= b {
						t.Fatalf("t=%.2f %v | %v: pre-pass dead at %d with budget %d, exact SLD %d",
							th, x.Tokens, y.Tokens, lower, b, exact)
					}
					if _, _, ok := sv.buildCost(xr, yr, b); ok {
						t.Fatalf("t=%.2f %v | %v: pre-pass dead at %d but buildCost's row minima stay within %d",
							th, x.Tokens, y.Tokens, lower, b)
					}
					if want != (BatchResult{lower, false, true}) {
						t.Fatalf("t=%.2f %v | %v: pre-pass dead at %d but Verify returned %+v",
							th, x.Tokens, y.Tokens, lower, want)
					}
				}
			}
		}
	}
	if dead < 1000 || alive < 1000 {
		t.Fatalf("pre-pass killed %d pairs and passed %d: the input exercises one side only", dead, alive)
	}
	if BatchKernelAvailable() && (ctr.SigPruned == 0 || ctr.Kernels == 0) {
		t.Fatalf("kernel live but the stager counted %d pre-pass kills and fired %d kernels", ctr.SigPruned, ctr.Kernels)
	}
}
