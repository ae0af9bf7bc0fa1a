package core

import (
	"repro/internal/strdist/simd"
	"repro/internal/token"
)

// This file keeps the batched-verification surface that bench/ compiles
// against. Nothing in the module calls it: every engine verifies each
// admitted pair through Verify where it admits it. StageBatch decides
// every pair at once, so there is nothing to stage, no kernel fires and no
// lane fills; FlushBatch only reports how many pairs were decided. The
// shim goes in the benchmark-only change that moves bench/ off it.

// BatchKernelWidth is the lane count of one strdist/simd kernel call,
// which bench/ reports; the verifier calls no such kernel.
func BatchKernelWidth() int { return simd.Width }

// BatchResult is one pair's verdict: the triple Verify returns.
type BatchResult struct {
	SLD    int
	Within bool
	Pruned bool
}

// BatchCounters is what FlushBatch reports. Batched counts the pairs
// StageBatch decided since the previous flush; Kernels and Lanes stay 0.
type BatchCounters struct {
	Batched, Kernels, Lanes int64
}

// StageBatch writes Verify(&x, ys[i], t) into out[i] for every candidate.
func (v *Verifier) StageBatch(x token.TokenizedString, ys []*token.TokenizedString, t float64, out []BatchResult) {
	for i, y := range ys {
		sld, within, pruned := v.Verify(&x, y, t)
		out[i] = BatchResult{sld, within, pruned}
	}
	v.staged += int64(len(ys))
}

// FlushBatch folds the pairs StageBatch decided since the previous flush
// into ctr (when non-nil). Every verdict is already written.
func (v *Verifier) FlushBatch(ctr *BatchCounters) {
	if ctr != nil {
		ctr.Batched += v.staged
	}
	v.staged = 0
}
