package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/token"
)

// batchRandTS draws a collision-heavy token multiset like genTS, plus an
// occasional oversized or non-BMP token to exercise the scalar cell
// route inside the batch path.
func batchRandTS(rng *rand.Rand, spice bool) token.TokenizedString {
	n := rng.Intn(6)
	toks := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if spice && rng.Intn(12) == 0 {
			switch rng.Intn(3) {
			case 0: // beyond batchMaxTokenLen: scalar cell
				long := make([]rune, batchMaxTokenLen+1+rng.Intn(8))
				for j := range long {
					long[j] = rune('a' + rng.Intn(4))
				}
				toks = append(toks, string(long))
			case 1: // non-BMP rune: scalar cell
				toks = append(toks, "ab\U0001F600cd")
			default: // BMP but multi-byte
				toks = append(toks, "zürich✓")
			}
			continue
		}
		l := 1 + rng.Intn(7)
		b := make([]rune, l)
		for j := range b {
			b[j] = rune('a' + rng.Intn(4))
		}
		toks = append(toks, string(b))
	}
	return token.New(toks)
}

// TestSIMDEquivalenceVerifyBatch: VerifyBatch's verdict triples are
// identical to per-pair Verify across random corpora, thresholds, both
// aligners, and with the batch machinery forced off — the property the
// CI equivalence guard keeps un-skipped.
func TestSIMDEquivalenceVerifyBatch(t *testing.T) {
	t.Logf("batch kernel available: %v", BatchKernelAvailable())
	rng := rand.New(rand.NewSource(1234))
	thresholds := []float64{-0.1, 0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0, 2.5}
	var scalarV, batchV, greedyS, greedyB, offV Verifier
	greedyS.Greedy = true
	greedyB.Greedy = true
	offV.DisableBatch = true
	for iter := 0; iter < 250; iter++ {
		probe := batchRandTS(rng, true)
		nc := 1 + rng.Intn(24)
		ys := make([]*token.TokenizedString, nc)
		for c := range ys {
			ts := batchRandTS(rng, true)
			ys[c] = &ts
		}
		out := make([]BatchResult, nc)
		outG := make([]BatchResult, nc)
		outOff := make([]BatchResult, nc)
		for _, th := range thresholds {
			var ctr BatchCounters
			batchV.VerifyBatch(probe, ys, th, out, &ctr)
			greedyB.VerifyBatch(probe, ys, th, outG, nil)
			offV.VerifyBatch(probe, ys, th, outOff, nil)
			for c, y := range ys {
				sld, within, pruned := scalarV.Verify(probe, *y, th)
				want := BatchResult{sld, within, pruned}
				if out[c] != want {
					t.Fatalf("iter %d t=%.2f cand %d: batch %+v != scalar %+v (probe %v cand %v)",
						iter, th, c, out[c], want, probe.Tokens, y.Tokens)
				}
				if outOff[c] != want {
					t.Fatalf("iter %d t=%.2f cand %d: DisableBatch %+v != scalar %+v",
						iter, th, c, outOff[c], want)
				}
				gsld, gwithin, gpruned := greedyS.Verify(probe, *y, th)
				if wantG := (BatchResult{gsld, gwithin, gpruned}); outG[c] != wantG {
					t.Fatalf("iter %d t=%.2f cand %d: greedy batch %+v != greedy scalar %+v",
						iter, th, c, outG[c], wantG)
				}
			}
			if ctr.Lanes > int64(ctr.Kernels)*int64(BatchKernelWidth()) {
				t.Fatalf("counter incoherence: %d lanes over %d kernels", ctr.Lanes, ctr.Kernels)
			}
		}
	}
}

// TestSIMDEquivalenceStagedBatch drives the cross-probe staging API:
// many probes staged through one Verifier before a single flush, with
// verdicts checked against per-pair scalar Verify. This is the shape
// the stream reducer and batched AddAll run, where lanes mix cells
// from different probes; the CI equivalence guard keeps it un-skipped.
func TestSIMDEquivalenceStagedBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	var sv Verifier
	for iter := 0; iter < 60; iter++ {
		var v Verifier
		th := []float64{0, 0.05, 0.1, 0.3, 0.5, 1.0}[rng.Intn(6)]
		np := 1 + rng.Intn(8)
		probes := make([]token.TokenizedString, np)
		cands := make([][]*token.TokenizedString, np)
		outs := make([][]BatchResult, np)
		for p := range probes {
			probes[p] = batchRandTS(rng, true)
			nc := 1 + rng.Intn(10)
			cands[p] = make([]*token.TokenizedString, nc)
			for c := range cands[p] {
				ts := batchRandTS(rng, true)
				cands[p][c] = &ts
			}
			outs[p] = make([]BatchResult, nc)
			v.StageBatch(probes[p], cands[p], th, outs[p])
		}
		var ctr BatchCounters
		v.FlushBatch(&ctr)
		for p := range probes {
			for c, y := range cands[p] {
				sld, within, pruned := sv.Verify(probes[p], *y, th)
				if want := (BatchResult{sld, within, pruned}); outs[p][c] != want {
					t.Fatalf("iter %d t=%.2f probe %d cand %d: staged %+v != scalar %+v (probe %v cand %v)",
						iter, th, p, c, outs[p][c], want, probes[p].Tokens, y.Tokens)
				}
			}
		}
		if ctr.Lanes > int64(ctr.Kernels)*int64(BatchKernelWidth()) {
			t.Fatalf("counter incoherence: %d lanes over %d kernels", ctr.Lanes, ctr.Kernels)
		}
	}
}

// TestBatchLaneFill pins the point of cross-probe staging: the mean
// kernel lane fill stays near Width — at least 14/16 of lanes occupied —
// because pools pack lanes from live cells across probes instead of
// sweeping per-probe remainders. The population is pairs that reach the
// pools: independent random candidates now die in the signature pre-pass
// without staging a cell (what survived of them filled 0.59 of the lanes
// of 248 kernels), so each candidate is its probe with a character
// substituted in one or two tokens — what a join's surviving pairs look
// like.
func TestBatchLaneFill(t *testing.T) {
	if !BatchKernelAvailable() {
		t.Skip("batch kernel unavailable; staging is bypassed")
	}
	rng := rand.New(rand.NewSource(99))
	var v Verifier
	outs := make([][]BatchResult, 0, 600)
	for p := 0; p < 600; p++ {
		probe := batchRandTS(rng, false)
		for probe.Count() == 0 {
			probe = batchRandTS(rng, false)
		}
		nc := 1 + rng.Intn(12)
		ys := make([]*token.TokenizedString, nc)
		for c := range ys {
			toks := append([]string(nil), probe.Tokens...)
			for e := 1 + rng.Intn(2); e > 0; e-- {
				i := rng.Intn(len(toks))
				r := []rune(toks[i])
				r[rng.Intn(len(r))] = rune('a' + rng.Intn(4))
				toks[i] = string(r)
			}
			ts := token.New(toks)
			ys[c] = &ts
		}
		out := make([]BatchResult, nc)
		outs = append(outs, out)
		v.StageBatch(probe, ys, 0.3, out)
	}
	var ctr BatchCounters
	v.FlushBatch(&ctr)
	if ctr.Kernels == 0 {
		t.Fatal("no kernel invocations over a 600-probe corpus")
	}
	fill := float64(ctr.Lanes) / (float64(ctr.Kernels) * float64(BatchKernelWidth()))
	t.Logf("lane fill: %d lanes / %d kernels = %.3f (width %d), %d of %d pairs dead in the pre-pass",
		ctr.Lanes, ctr.Kernels, fill, BatchKernelWidth(), ctr.SigPruned, ctr.Batched)
	if fill < 14.0/16.0 {
		t.Fatalf("lane fill %.3f below 14/16: staging is not refilling lanes", fill)
	}
}

// TestVerifyBatchDegenerateShapes covers the explicit fallbacks: empty
// candidate lists, single candidates (below batchMinCands), empty probe,
// and empty candidates.
func TestVerifyBatchDegenerateShapes(t *testing.T) {
	var v, sv Verifier
	empty := token.New(nil)
	one := token.New([]string{"alpha", "beta"})
	other := token.New([]string{"alpa", "betta"})

	v.VerifyBatch(one, nil, 0.3, nil, nil) // no candidates: no-op

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
			v.VerifyBatch(tc.probe, tc.ys, th, out, nil)
			for c, y := range tc.ys {
				sld, within, pruned := sv.Verify(tc.probe, *y, th)
				if want := (BatchResult{sld, within, pruned}); out[c] != want {
					t.Fatalf("%s t=%.1f cand %d: %+v != %+v", tc.name, th, c, out[c], want)
				}
			}
		}
	}
}

// TestVerifyBatchZeroAlloc pins the steady state: a warmed Verifier
// batch-verifies without allocating.
func TestVerifyBatchZeroAlloc(t *testing.T) {
	if !BatchKernelAvailable() {
		// The scalar fallback is covered by the Verifier's own
		// zero-alloc pin; this test pins the batch machinery itself.
		t.Logf("kernel unavailable; exercising fallback path")
	}
	rng := rand.New(rand.NewSource(5))
	probe := batchRandTS(rng, false)
	for probe.Count() == 0 {
		probe = batchRandTS(rng, false)
	}
	ys := make([]*token.TokenizedString, 12)
	for c := range ys {
		ts := batchRandTS(rng, false)
		ys[c] = &ts
	}
	out := make([]BatchResult, len(ys))
	var v Verifier
	var ctr BatchCounters
	v.VerifyBatch(probe, ys, 0.3, out, &ctr) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		v.VerifyBatch(probe, ys, 0.3, out, &ctr)
	})
	if allocs != 0 {
		t.Fatalf("VerifyBatch allocates %v/op in steady state, want 0", allocs)
	}
}

// TestSIMDEquivalenceSharedScratch stages probes of two different cell
// shapes back to back through one Verifier. Every pool transposes into
// the same pair of scratch blocks, so when the second shape fires with
// fewer than Width occupied lanes its stale lanes hold the first shape's
// runes (only their caps are zeroed); verdicts must still equal the
// scalar engine's, flush after flush, without allocating.
func TestSIMDEquivalenceSharedScratch(t *testing.T) {
	mk := func(toks ...string) *token.TokenizedString {
		ts := token.New(toks)
		return &ts
	}
	wide := mk("abcdefghij", "klmnopqrst", "uvwxyzabcd")
	narrow := mk("ab", "cd")
	var wideYs, narrowYs []*token.TokenizedString
	for i := 0; i < 2*BatchKernelWidth(); i++ { // full pools of the wide shape
		wideYs = append(wideYs, mk("abcdefghiX", "klmnopqrsX", "uvwxyzabc"+string(rune('a'+i))))
	}
	for i := 0; i < 3; i++ { // a partial pool of the narrow one
		narrowYs = append(narrowYs, mk("ab", "c"+string(rune('d'+i))))
	}
	wideOut := make([]BatchResult, len(wideYs))
	narrowOut := make([]BatchResult, len(narrowYs))
	var v, sv Verifier
	var ctr BatchCounters
	round := func() {
		v.StageBatch(*wide, wideYs, 0.3, wideOut)
		v.StageBatch(*narrow, narrowYs, 0.3, narrowOut)
		v.FlushBatch(&ctr)
		v.StageBatch(*narrow, narrowYs, 0.3, narrowOut)
		v.StageBatch(*wide, wideYs, 0.3, wideOut)
		v.FlushBatch(&ctr)
	}
	round()
	if BatchKernelAvailable() && ctr.Lanes == ctr.Kernels*int64(BatchKernelWidth()) {
		t.Fatalf("no partially filled kernel fired (%d lanes, %d kernels): stale lanes untested", ctr.Lanes, ctr.Kernels)
	}
	for _, side := range []struct {
		x   *token.TokenizedString
		ys  []*token.TokenizedString
		out []BatchResult
	}{{wide, wideYs, wideOut}, {narrow, narrowYs, narrowOut}} {
		for c, y := range side.ys {
			sld, within, pruned := sv.Verify(*side.x, *y, 0.3)
			if want := (BatchResult{sld, within, pruned}); side.out[c] != want {
				t.Fatalf("probe %v cand %v: staged %+v != scalar %+v", side.x.Tokens, y.Tokens, side.out[c], want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("two shapes through the shared scratch allocate %v/op in steady state, want 0", allocs)
	}
}

// TestStoredSigEquivalence: the signature pre-pass reads the signatures
// BuildCorpus stored where a string has them and computes them where it
// has none, and the two are the same pass. The same pairs verify as
// corpus strings (stored), as token.New strings (computed) and mixed
// (stored probe, computed candidates), staged and under DisableBatch:
// every BatchResult — the lower bound reported for a pruned pair
// included — and every batch counter equal the stored side's.
func TestStoredSigEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	computed := make([]token.TokenizedString, 300)
	for i := range computed {
		computed[i] = batchRandTS(rng, true)
	}
	stored := token.BuildCorpusFromTokenized(computed).Strings
	for i := range stored {
		if len(stored[i].Sigs()) != stored[i].Count() || computed[i].Sigs() != nil {
			t.Fatalf("string %d: %d stored signatures for %d tokens, New stored %d",
				i, len(stored[i].Sigs()), stored[i].Count(), len(computed[i].Sigs()))
		}
	}
	sides := [3]struct{ xs, ys []token.TokenizedString }{
		{stored, stored}, {computed, computed}, {stored, computed},
	}
	for _, th := range []float64{0.1, 0.3, 0.5} {
		var staged, off [3]Verifier
		var ctr [3]BatchCounters
		var outStaged, outOff [3][][]BatchResult
		for p := range computed {
			idx := rng.Perm(len(computed))[:1+rng.Intn(20)]
			for s, side := range sides {
				ys := make([]*token.TokenizedString, len(idx))
				for c, i := range idx {
					ys[c] = &side.ys[i]
				}
				outStaged[s] = append(outStaged[s], make([]BatchResult, len(ys)))
				staged[s].StageBatch(side.xs[p], ys, th, outStaged[s][p])
				outOff[s] = append(outOff[s], make([]BatchResult, len(ys)))
				off[s].DisableBatch = true
				off[s].VerifyBatch(side.xs[p], ys, th, outOff[s][p], nil)
			}
		}
		for s := range sides {
			staged[s].FlushBatch(&ctr[s])
		}
		for s := range sides {
			for p := range computed {
				if !slices.Equal(outStaged[s][p], outOff[s][p]) || !slices.Equal(outStaged[s][p], outStaged[0][p]) {
					t.Fatalf("t=%.1f side %d probe %d: staged %+v, DisableBatch %+v, stored signatures %+v",
						th, s, p, outStaged[s][p], outOff[s][p], outStaged[0][p])
				}
			}
			if ctr[s] != ctr[0] {
				t.Fatalf("t=%.1f side %d: counters %+v, stored signatures gave %+v", th, s, ctr[s], ctr[0])
			}
		}
		if BatchKernelAvailable() && ctr[0].SigPruned == 0 {
			t.Fatalf("t=%.1f: the staged pre-pass decided no pair", th)
		}
	}
}
