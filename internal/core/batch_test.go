package core

import (
	"math/rand"
	"testing"

	"repro/internal/token"
)

// stageFlush stages probe x's candidates on v and flushes at once.
func stageFlush(v *Verifier, x token.TokenizedString, ys []*token.TokenizedString, t float64, out []BatchResult, ctr *BatchCounters) {
	v.StageBatch(x, ys, t, out)
	v.FlushBatch(ctr)
}

// TestSIMDEquivalenceVerifyBatch: the StageBatch / FlushBatch shim writes
// per-pair Verify's verdict triple for every candidate, across random
// spiced strings, thresholds and both aligners, and FlushBatch reports
// every pair decided and no kernel.
func TestSIMDEquivalenceVerifyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	thresholds := []float64{-0.1, 0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 2.5}
	var scalarV, batchV, greedyS, greedyB Verifier
	greedyS.Greedy = true
	greedyB.Greedy = true
	for iter := 0; iter < 250; iter++ {
		probe := spicedTS(rng)
		nc := 1 + rng.Intn(24)
		ys := make([]*token.TokenizedString, nc)
		for c := range ys {
			ts := spicedTS(rng)
			ys[c] = &ts
		}
		out := make([]BatchResult, nc)
		outG := make([]BatchResult, nc)
		for _, th := range thresholds {
			var ctr BatchCounters
			stageFlush(&batchV, probe, ys, th, out, &ctr)
			stageFlush(&greedyB, probe, ys, th, outG, nil)
			for c, y := range ys {
				sld, within, pruned := scalarV.Verify(&probe, y, th)
				if want := (BatchResult{sld, within, pruned}); out[c] != want {
					t.Fatalf("iter %d t=%.2f cand %d: batch %+v != Verify %+v (probe %v cand %v)",
						iter, th, c, out[c], want, probe.Tokens, y.Tokens)
				}
				gsld, gwithin, gpruned := greedyS.Verify(&probe, y, th)
				if wantG := (BatchResult{gsld, gwithin, gpruned}); outG[c] != wantG {
					t.Fatalf("iter %d t=%.2f cand %d: greedy batch %+v != greedy Verify %+v",
						iter, th, c, outG[c], wantG)
				}
			}
			if ctr != (BatchCounters{Batched: int64(nc)}) {
				t.Fatalf("iter %d t=%.2f: counters %+v for %d pairs", iter, th, ctr, nc)
			}
		}
	}
}

// TestSIMDEquivalenceStagedBatch drives the shim the way bench/ does:
// many probes staged through one Verifier before a single flush. Every
// verdict equals per-pair Verify, and the flush reports every pair staged
// since the previous one (bench/'s core.batched_frac).
func TestSIMDEquivalenceStagedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	var v, sv Verifier
	for iter := 0; iter < 60; iter++ {
		th := []float64{0, 0.05, 0.1, 0.3, 0.5, 1.0}[rng.Intn(6)]
		probes := make([]token.TokenizedString, 1+rng.Intn(8))
		cands := make([][]*token.TokenizedString, len(probes))
		outs := make([][]BatchResult, len(probes))
		staged := 0
		for p := range probes {
			probes[p] = spicedTS(rng)
			cands[p] = make([]*token.TokenizedString, 1+rng.Intn(10))
			for c := range cands[p] {
				ts := spicedTS(rng)
				cands[p][c] = &ts
			}
			outs[p] = make([]BatchResult, len(cands[p]))
			v.StageBatch(probes[p], cands[p], th, outs[p])
			staged += len(cands[p])
		}
		var ctr BatchCounters
		v.FlushBatch(&ctr)
		if ctr != (BatchCounters{Batched: int64(staged)}) {
			t.Fatalf("iter %d: counters %+v for %d staged pairs", iter, ctr, staged)
		}
		for p := range probes {
			for c, y := range cands[p] {
				sld, within, pruned := sv.Verify(&probes[p], y, th)
				if want := (BatchResult{sld, within, pruned}); outs[p][c] != want {
					t.Fatalf("iter %d t=%.2f probe %d cand %d: staged %+v != Verify %+v (probe %v cand %v)",
						iter, th, p, c, outs[p][c], want, probes[p].Tokens, y.Tokens)
				}
			}
		}
	}
}

// TestVerifyBatchDegenerateShapes covers empty candidate lists, a single
// candidate, an empty probe and empty candidates.
func TestVerifyBatchDegenerateShapes(t *testing.T) {
	var v, sv Verifier
	empty := token.New(nil)
	one := token.New([]string{"alpha", "beta"})
	other := token.New([]string{"alpa", "betta"})

	stageFlush(&v, one, nil, 0.3, nil, nil) // no candidates: no-op

	for _, tc := range []struct {
		name  string
		probe token.TokenizedString
		ys    []*token.TokenizedString
	}{
		{"single-candidate", one, []*token.TokenizedString{&other}},
		{"empty-probe", empty, []*token.TokenizedString{&one, &other}},
		{"empty-candidate", one, []*token.TokenizedString{&empty, &other, &empty}},
	} {
		out := make([]BatchResult, len(tc.ys))
		for _, th := range []float64{-1, 0, 0.4, 2.5} {
			stageFlush(&v, tc.probe, tc.ys, th, out, nil)
			for c, y := range tc.ys {
				sld, within, pruned := sv.Verify(&tc.probe, y, th)
				if want := (BatchResult{sld, within, pruned}); out[c] != want {
					t.Fatalf("%s t=%.1f cand %d: %+v != %+v", tc.name, th, c, out[c], want)
				}
			}
		}
	}
}

// TestVerifyBatchZeroAlloc pins the steady state: a warmed Verifier
// verifies through the shim without allocating.
func TestVerifyBatchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	probe := spicedTS(rng)
	for probe.Count() == 0 {
		probe = spicedTS(rng)
	}
	ys := make([]*token.TokenizedString, 12)
	for c := range ys {
		ts := spicedTS(rng)
		ys[c] = &ts
	}
	out := make([]BatchResult, len(ys))
	var v Verifier
	var ctr BatchCounters
	stageFlush(&v, probe, ys, 0.3, out, &ctr) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		stageFlush(&v, probe, ys, 0.3, out, &ctr)
	})
	if allocs != 0 {
		t.Fatalf("StageBatch + FlushBatch allocate %v/op in steady state, want 0", allocs)
	}
}
