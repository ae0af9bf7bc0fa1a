package core

import (
	"repro/internal/strdist/simd"
	"repro/internal/token"
)

// BatchKernelAvailable reports whether the vectorized batch kernels are
// live on this build and CPU (amd64 with AVX2 or arm64 NEON, not built
// with -tags nosimd). When false, VerifyBatch transparently verifies
// pair by pair with the scalar engine.
func BatchKernelAvailable() bool { return simd.Available() }

// BatchKernelWidth is the lane count of one kernel invocation — the
// denominator of the lane-fill ratio Lanes/(Kernels*Width).
func BatchKernelWidth() int { return simd.Width }

// BatchResult is the verdict for one candidate of a batched
// verification — the same triple Verify returns.
type BatchResult struct {
	SLD    int
	Within bool
	Pruned bool
}

// BatchCounters observes the batched verification path. Callers pass
// one to VerifyBatch / FlushBatch (nil is allowed) and fold it into
// their stats.
type BatchCounters struct {
	// Batched counts candidates verified through the batch machinery
	// (as opposed to the per-pair scalar fallback).
	Batched int64
	// Kernels counts vector-kernel invocations.
	Kernels int64
	// Lanes counts occupied kernel lanes summed over invocations; the
	// mean lane fill (Lanes/Kernels, out of simd.Width) is the batching
	// efficiency the staging layer exists to maximize.
	Lanes int64
	// ScalarCells counts token-pair cells inside the batch path that
	// fell back to the scalar DP (oversized or non-BMP tokens, or
	// degenerate budgets).
	ScalarCells int64
	// SigPruned counts staged candidates the signature pre-pass decided
	// before any cell was staged — a subset of the budget-pruned verdicts.
	SigPruned int64
}

// Add folds o into b.
func (b *BatchCounters) Add(o BatchCounters) {
	b.Batched += o.Batched
	b.Kernels += o.Kernels
	b.Lanes += o.Lanes
	b.ScalarCells += o.ScalarCells
	b.SigPruned += o.SigPruned
}

const (
	// batchMinCands is the smallest candidate list worth batching for a
	// lone synchronous VerifyBatch; a single survivor verifies scalar.
	// Staged callers (StageBatch) have no such floor — a lone candidate
	// still shares lanes with other probes' candidates.
	batchMinCands = 2
	// batchMaxTokenLen routes pathologically long tokens to the scalar
	// engine; it also keeps every DP value far below uint16 saturation.
	batchMaxTokenLen = 64
	// batchMaxBudget keeps per-lane caps inside uint16 headroom
	// (caps+1 must not saturate); budgets this large only arise from
	// degenerate thresholds, which verify scalar.
	batchMaxBudget = 1<<15 - 2
	// batchBandedFactor routes a cell to the banded kernel when the
	// band sweep touches fewer cells than the full sweep: per row the
	// banded kernel computes at most 2*cap+1 cells against lb, so
	// banded wins exactly when 2*cap+1 < lb. With this routing the
	// tight thresholds (T <= 0.1) that previously verified scalar ride
	// the vector path profitably (BenchmarkVerifyBatch t=0.1).
	batchBandedFactor = 2
	// batchMaxStagedCells bounds the staged-cell arena; staging past it
	// forces a flush so an unbounded AddAll batch cannot hold the whole
	// corpus's DP cells in memory at once.
	batchMaxStagedCells = 1 << 20
	// batchBudgetCacheLen bounds the per-threshold budget memo: the SLD
	// budget depends only on t and la+lb, and aggregate-length sums
	// repeat heavily across a batch, so the boundary-snapping loops of
	// MaxSLDWithin run once per distinct sum. Larger sums (rare) compute
	// directly.
	batchBudgetCacheLen = 2048
)

// cellRef is one pending token-pair DP cell: row i of staged pair p's
// cost matrix, column j (candidate token j).
type cellRef struct {
	p    int32
	i, j int16
}

// lanePool accumulates cell jobs that can share one kernel invocation:
// same probe-token rune length la, same candidate-token rune length lb,
// same kernel (full or banded). Lanes freely mix cells from different
// probes and candidates — the cross-probe batching the lane-major pair
// layout of internal/strdist/simd exists for. A pool holds references
// and caps only: no rune is copied until the pool fires (flushPool).
type lanePool struct {
	la, lb  int
	banded  bool
	n       int // occupied lanes
	maxCap  int
	inDirty bool
	refs    [simd.Width]cellRef
	caps    [simd.Width]uint16
}

// stagedPair is one (probe, candidate) verification in flight: its DP
// cells trickle through lane pools row by row, and the row-sum pruning
// ledger advances each time a row's cells are all in. Rows are staged
// one at a time, so a pair that dies never occupies another lane — the
// lane-refill property: pools only ever hold live work. The matrix is
// the residues' (cancelShared): shared tokens never reach a lane.
type stagedPair struct {
	xRunes  [][]rune // probe residue token runes, in token order
	yRunes  [][]rune // candidate residue token runes, in token order
	out     *BatchResult
	m       int32 // probe residue token count
	nc      int32 // candidate residue token count
	row     int32 // current probe-token row
	pending int32 // cells of the current row still in pools
	cellOff int32 // this pair's m*nc cell block in the cells arena
	budget  int32
	rowSum  int32
	curMin  int32 // running minimum of the current row's resolved cells
	minTok  int32 // shortest candidate residue token (epsilon-row cost source)
	done    bool
	inReady bool
}

// BatchStager is the batched-verification engine: it accumulates
// token-pair DP cells from staged (probe, candidate) verifications in
// per-shape lane pools, fires a kernel whenever a pool fills its
// simd.Width lanes, and advances each pair's pruning ledger row by row.
// Because pools pack lanes from whatever live cells arrive — across
// candidates and probes — dead candidates stop occupying lanes the row
// they die, and lane fill stays near Width while pairs keep arriving
// (few do when sigPrune rejects most candidates in stage and cancelShared
// leaves the survivors small residues: such a join fires few, partly
// filled kernels). One stager serves one Verifier and inherits its
// single-goroutine discipline.
type BatchStager struct {
	v     *Verifier
	pools []*lanePool // direct-indexed by (la, lb, banded)
	dirty []*lanePool // pools holding pending lanes
	pairs []stagedPair
	ready []int32
	live  int
	ctr   BatchCounters

	// Cell and residue-view arenas, reused across epochs (reset when live
	// returns to 0): a staged pair's cells and its xRunes / yRunes when
	// cancelShared copied them.
	cells []uint16
	resid [][]rune

	// Per-threshold budget memo, keyed by la+lb (see batchBudgetCacheLen).
	budgetT     float64
	budgetCache []int32

	// Kernel scratch: the one pair of lane-major rune blocks every pool
	// transposes into just before it fires, the DP row, the results.
	ablock [batchMaxTokenLen * simd.Width]uint16
	bblock [batchMaxTokenLen * simd.Width]uint16
	krow   []uint16
	kout   [simd.Width]uint16
}

// growSlice returns a slice of length n backed by s when possible.
func growSlice[T int | int32 | bool | uint16](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	ns := make([]T, n, c)
	copy(ns, s[:cap(s)])
	return ns
}

func (v *Verifier) stagerInit() *BatchStager {
	if v.stager == nil {
		v.stager = &BatchStager{
			v:     v,
			pools: make([]*lanePool, batchMaxTokenLen*batchMaxTokenLen*2),
		}
	}
	return v.stager
}

// poolFor returns the lane pool for a cell shape; la and lb are both
// in [1, batchMaxTokenLen].
func (bs *BatchStager) poolFor(la, lb int, banded bool) *lanePool {
	idx := ((la-1)*batchMaxTokenLen + (lb - 1)) * 2
	if banded {
		idx++
	}
	pool := bs.pools[idx]
	if pool == nil {
		pool = &lanePool{la: la, lb: lb, banded: banded}
		bs.pools[idx] = pool
	}
	return pool
}

// enqueueRow stages the current row of pair p: each cell is either
// resolved immediately (length-pruned: LD >= |la-lb| > budget, so the
// cell is budget+1 without any DP) or referenced from a lane of its
// shape's pool. The pending count is pre-loaded with a +1 guard so
// eager pool flushes during the loop cannot see the row complete
// before every cell has been enqueued.
func (bs *BatchStager) enqueueRow(pi int32) {
	p := &bs.pairs[pi]
	i := p.row
	la := len(p.xRunes[i])
	budget := p.budget
	cap1 := budget + 1
	cellBase := p.cellOff + i*p.nc
	p.pending = 1   // guard
	p.curMin = cap1 // every resolved cell is <= cap1, so this is the identity
	for j, cr := range p.yRunes {
		lb := len(cr)
		d := la - lb
		if d < 0 {
			d = -d
		}
		if int32(d) > budget {
			bs.cells[cellBase+int32(j)] = uint16(cap1)
			continue
		}
		banded := batchBandedFactor*int(budget)+1 < lb
		pool := bs.poolFor(la, lb, banded)
		l := pool.n
		pool.refs[l] = cellRef{p: pi, i: int16(i), j: int16(j)}
		pool.caps[l] = uint16(budget)
		if int(budget) > pool.maxCap {
			pool.maxCap = int(budget)
		}
		pool.n++
		// p stays valid across the flush (bs.pairs is not appended to
		// here), and the +1 pending guard keeps the flush from
		// completing this row early.
		p.pending++
		if pool.n == simd.Width {
			bs.flushPool(pool)
		} else if !pool.inDirty {
			pool.inDirty = true
			bs.dirty = append(bs.dirty, pool)
		}
	}
	p.pending--
	if p.pending == 0 && !p.inReady {
		p.inReady = true
		bs.ready = append(bs.ready, pi)
	}
}

// flushPool fires one kernel invocation over the pool's lanes: it
// transposes each occupied lane's two tokens — narrowing runes to uint16
// — from where they sit in their strings' rune arenas into the stager's
// shared lane-major scratch blocks, runs the kernel, writes each lane's
// result into its pair's cell block, and queues pairs whose current row
// just completed. The scratch blocks are shared by every pool, so an
// unoccupied lane holds whatever an earlier flush, usually of another
// shape, left there; only its cap is zeroed, which is all the kernel
// contract requires — lanes are independent except for the all-dead
// abort, which a cap-0 stale lane can only tighten toward the occupied
// lanes' own death (see simd.LevBatch's padding note).
func (bs *BatchStager) flushPool(pool *lanePool) {
	n := pool.n
	if n == 0 {
		return
	}
	la, lb := pool.la, pool.lb
	ab, bb := bs.ablock[:la*simd.Width], bs.bblock[:lb*simd.Width]
	for l := 0; l < n; l++ {
		ref := pool.refs[l]
		p := &bs.pairs[ref.p]
		for k, r := range p.xRunes[ref.i] {
			ab[k*simd.Width+l] = uint16(r)
		}
		for k, r := range p.yRunes[ref.j] {
			bb[k*simd.Width+l] = uint16(r)
		}
	}
	for l := n; l < simd.Width; l++ {
		pool.caps[l] = 0
	}
	if pool.banded {
		band := pool.maxCap
		if band < 1 {
			band = 1
		}
		simd.LevBandedBatch(ab, la, bb, lb, band, &pool.caps, &bs.krow, &bs.kout)
	} else {
		simd.LevBatch(ab, la, bb, lb, &pool.caps, &bs.krow, &bs.kout)
	}
	bs.ctr.Kernels++
	bs.ctr.Lanes += int64(n)
	pool.n = 0
	pool.maxCap = 0
	for l := 0; l < n; l++ {
		ref := pool.refs[l]
		p := &bs.pairs[ref.p]
		p.pending--
		out := bs.kout[l]
		bs.cells[p.cellOff+int32(ref.i)*p.nc+int32(ref.j)] = out
		if int32(out) < p.curMin {
			p.curMin = int32(out)
		}
		if p.pending == 0 && !p.inReady {
			p.inReady = true
			bs.ready = append(bs.ready, ref.p)
		}
	}
}

// drainReady steps every pair whose current row has all cells in:
// fold the row into the pruning ledger, then either kill the pair,
// stage its next row, or run the final alignment. Stepping can fill
// pools to the brim again (enqueueRow eager-flushes), which can queue
// more ready pairs — the loop runs until quiescent.
func (bs *BatchStager) drainReady() {
	for len(bs.ready) > 0 {
		pi := bs.ready[len(bs.ready)-1]
		bs.ready = bs.ready[:len(bs.ready)-1]
		p := &bs.pairs[pi]
		p.inReady = false
		if p.done {
			continue
		}
		bs.finishRow(pi)
	}
}

// finishRow folds pair pi's just-completed row into the row-sum
// pruning ledger — exactly the scalar engine's buildCost accounting:
// the row minimum (including the epsilon column when the candidate has
// fewer tokens than the probe) is a lower bound on the row's
// assignment cost, and the pair dies the moment the partial sum
// exceeds its budget. The DP-cell part of the minimum was maintained
// incrementally as cells resolved (curMin), so the fold is O(1).
func (bs *BatchStager) finishRow(pi int32) {
	p := &bs.pairs[pi]
	i := p.row
	cap1 := p.budget + 1
	rowMin := p.curMin
	if p.nc < p.m {
		// ε columns: deleting probe token i costs la (capped).
		eps := int32(len(p.xRunes[i]))
		if eps > cap1 {
			eps = cap1
		}
		if eps < rowMin {
			rowMin = eps
		}
	}
	p.rowSum += rowMin
	if p.rowSum > p.budget {
		*p.out = BatchResult{int(p.rowSum), false, true}
		bs.retire(p)
		return
	}
	if p.row+1 < p.m {
		p.row++
		bs.enqueueRow(pi)
		return
	}
	bs.complete(pi)
}

// complete runs pair pi's endgame once every DP cell is in: ε rows for
// surplus candidate tokens, then the k×k cost-matrix assembly and the
// assignment, identical to the scalar engine's tail.
func (bs *BatchStager) complete(pi int32) {
	p := &bs.pairs[pi]
	v := bs.v
	xRunes, yRunes := p.xRunes, p.yRunes
	m, nc := int(p.m), int(p.nc)
	b := int(p.budget)
	cap1 := b + 1
	for i := m; i < nc; i++ {
		// Growing ε into candidate tokens: the row minimum is the
		// shortest token (capped), exactly buildCost's ε rows.
		rm := int(p.minTok)
		if rm > cap1 {
			rm = cap1
		}
		p.rowSum += int32(rm)
		if int(p.rowSum) > b {
			*p.out = BatchResult{int(p.rowSum), false, true}
			bs.retire(p)
			return
		}
	}
	k := m
	if nc > k {
		k = nc
	}
	if cap(v.cost) < k*k {
		v.cost = make([]int, k*k, 2*k*k)
	}
	v.cost = v.cost[:k*k]
	cells := bs.cells[p.cellOff:]
	for i := 0; i < k; i++ {
		row := v.cost[i*k : (i+1)*k]
		if i < m {
			for j := 0; j < nc; j++ {
				row[j] = int(cells[i*nc+j])
			}
			if nc < k {
				eps := len(xRunes[i])
				if eps > cap1 {
					eps = cap1
				}
				for j := nc; j < k; j++ {
					row[j] = eps
				}
			}
		} else {
			for j := 0; j < nc; j++ {
				e := len(yRunes[j])
				if e > cap1 {
					e = cap1
				}
				row[j] = e
			}
		}
	}
	var total int
	var ok, early bool
	if v.Greedy {
		total, ok, early = v.scratch.GreedyFlat(v.cost, k, b)
	} else {
		total, ok, early = v.scratch.HungarianFlat(v.cost, k, b)
	}
	*p.out = BatchResult{total, ok, !ok && early}
	bs.retire(p)
}

// retire marks a pair finished and resets the arenas once no staged
// work remains.
func (bs *BatchStager) retire(p *stagedPair) {
	p.done = true
	bs.live--
	if bs.live == 0 && len(bs.ready) == 0 {
		bs.pairs = bs.pairs[:0]
		bs.cells = bs.cells[:0]
		bs.resid = bs.resid[:0]
	}
}

// budgetFor is MaxSLDWithin(t, la, lb) through a per-threshold memo:
// the budget depends only on t and la+lb, and length sums repeat
// heavily across a batch, so the threshold-boundary snapping runs once
// per distinct sum.
func (bs *BatchStager) budgetFor(t float64, sum int) int {
	if sum >= batchBudgetCacheLen {
		return MaxSLDWithin(t, sum, 0)
	}
	if bs.budgetT != t || len(bs.budgetCache) == 0 {
		bs.budgetCache = growSlice(bs.budgetCache, batchBudgetCacheLen)
		for i := range bs.budgetCache {
			bs.budgetCache[i] = -1
		}
		bs.budgetT = t
	}
	if b := bs.budgetCache[sum]; b >= 0 {
		return int(b)
	}
	b := MaxSLDWithin(t, sum, 0)
	bs.budgetCache[sum] = int32(b)
	return b
}

// stage registers probe x's candidates with the stager. Trivial and
// kernel-ineligible candidates resolve immediately through the scalar
// engine; of the rest, the signature pre-pass decides the dead ones,
// cancelShared resolves those with an empty residue, and the survivors
// start the first row of their residue matrix. The caller's out backing
// array must stay addressable until the next flush.
func (bs *BatchStager) stage(x token.TokenizedString, ys []*token.TokenizedString, t float64, out []BatchResult) {
	v := bs.v
	xRunes := x.RuneSlices()
	lx := x.AggregateLen()
	// The scalar route below may refill v.xsig, but with this same probe's
	// signatures, so xs stays valid.
	xs := sigsOf(&v.xsig, &x)
	bs.ctr.Batched += int64(len(ys))
	for c, y := range ys {
		b := bs.budgetFor(t, lx+y.AggregateLen())
		yRunes := y.RuneSlices()
		nc := len(yRunes)
		if nc == 0 {
			out[c] = BatchResult{lx, lx <= b, false}
			continue
		}
		// Budget-0 pairs reduce to token equality scans; the scalar
		// engine's capped DP resolves those faster than lane staging.
		// Kernel eligibility reads the construction-time caches: the
		// BMP flag plus the long end of the sorted length histogram.
		if b == 0 || b > batchMaxBudget || !y.BMPOnly() || y.LengthHistogram()[nc-1] > batchMaxTokenLen {
			sld, within, pruned := v.verify(x, *y, b)
			out[c] = BatchResult{sld, within, pruned}
			bs.ctr.ScalarCells += int64(len(xRunes) * nc)
			continue
		}
		if lower, dead := sigPrune(xRunes, yRunes, xs, sigsOf(&v.ysig, y), b); dead {
			out[c] = BatchResult{lower, false, true}
			bs.ctr.SigPruned++
			continue
		}
		resid, xr, yr := cancelShared(bs.resid, &x, y)
		if len(xr) == 0 || len(yr) == 0 {
			sld, within, pruned := residueOnly(xr, yr, b)
			out[c] = BatchResult{sld, within, pruned}
			continue
		}
		bs.resid = resid
		m, nc := len(xr), len(yr)
		minTok := batchMaxTokenLen
		for _, r := range yr {
			minTok = min(minTok, len(r))
		}
		need := len(bs.cells) + m*nc
		bs.cells = growSlice(bs.cells, need)
		pi := int32(len(bs.pairs))
		if cap(bs.pairs) > len(bs.pairs) {
			bs.pairs = bs.pairs[:pi+1]
		} else {
			bs.pairs = append(bs.pairs, stagedPair{})
		}
		p := &bs.pairs[pi]
		p.xRunes = xr
		p.yRunes = yr
		p.out = &out[c]
		p.m = int32(m)
		p.nc = int32(nc)
		p.row = 0
		p.pending = 0
		p.cellOff = int32(need - m*nc)
		p.budget = int32(b)
		p.rowSum = 0
		p.curMin = 0
		p.minTok = int32(minTok)
		p.done = false
		p.inReady = false
		bs.live++
		bs.enqueueRow(pi)
	}
	bs.drainReady()
}

// flush forces every staged pair to a verdict: fire pending pools in
// the order they dirtied (oldest pools have had the longest to fill),
// stepping completed rows after each shot — which refills pools with
// live follow-on rows and re-appends them to the dirty queue, so the
// sweep keeps firing until no staged work remains. Progress is
// guaranteed — every live pair either sits in the ready queue or holds
// at least one cell in some dirty pool.
func (bs *BatchStager) flush() {
	bs.drainReady()
	for i := 0; i < len(bs.dirty); i++ {
		pool := bs.dirty[i]
		// Clear the mark before firing: stepping rows below may push new
		// cells into this same pool, and those must re-queue it.
		pool.inDirty = false
		if pool.n == 0 {
			continue
		}
		bs.flushPool(pool)
		bs.drainReady()
	}
	bs.dirty = bs.dirty[:0]
}

// StageBatch stages probe x's candidates for batched verification
// without forcing a verdict: surviving token-pair cells pool in the
// stager's lanes alongside previously staged probes, and verdicts are
// written into out — some immediately, the rest by the time FlushBatch
// returns. The out backing array (and ys's tokenized strings) must
// stay addressable until then. Verdicts are identical to Verify pair
// by pair. When the kernel is unavailable, DisableBatch or Unbounded is
// set, or the probe is kernel-ineligible (a rune outside the BMP, or a
// token longer than batchMaxTokenLen), every pair resolves through Verify
// immediately.
func (v *Verifier) StageBatch(x token.TokenizedString, ys []*token.TokenizedString, t float64, out []BatchResult) {
	if len(ys) == 0 {
		return
	}
	// Probe eligibility is O(1): the BMP flag (set only by constructors
	// that drop empty tokens, so every la >= 1) and the long end of the
	// sorted length histogram.
	m := x.Count()
	if v.Unbounded || v.DisableBatch || !simd.Available() || m == 0 || !x.BMPOnly() || x.LengthHistogram()[m-1] > batchMaxTokenLen {
		v.verifyBatchScalar(x, ys, t, out)
		return
	}
	if t < 0 {
		for i := range out {
			out[i] = BatchResult{0, false, true}
		}
		return
	}
	bs := v.stagerInit()
	bs.stage(x, ys, t, out)
	if len(bs.cells) > batchMaxStagedCells {
		bs.flush()
	}
}

// FlushBatch drives every verdict staged by StageBatch to completion
// and folds the stager's counters into ctr (when non-nil).
func (v *Verifier) FlushBatch(ctr *BatchCounters) {
	if v.stager == nil {
		return
	}
	v.stager.flush()
	if ctr != nil {
		ctr.Add(v.stager.ctr)
	}
	v.stager.ctr = BatchCounters{}
}

// VerifyBatch verifies one probe x against many candidates ys at
// threshold t, writing per-candidate verdicts into out (len(out) must
// equal len(ys)). Verdicts are identical to calling Verify per pair —
// property-tested by TestSIMDEquivalenceVerifyBatch — but the
// token-pair Levenshtein cells are computed a lane-width at a time
// through the staging engine: cells pool by (probe-token length,
// candidate-token length, kernel) shape, cross-candidate and
// cross-probe, and each pair's rows stage lazily so candidates that
// die under the row-sum pruning bound stop occupying lanes. Cells
// whose budget is small against the candidate token (2*budget+1 < lb)
// ride the banded kernel, which sweeps only the diagonal band.
//
// When the kernel is unavailable (BatchKernelAvailable false),
// DisableBatch or Unbounded is set, the batch is too small, or the probe
// carries oversized/non-BMP tokens, every pair verifies through Verify
// instead. ctr, when non-nil, accumulates batching counters either way.
//
// VerifyBatch flushes the stager: any verdicts staged earlier through
// StageBatch are completed as a side effect.
func (v *Verifier) VerifyBatch(x token.TokenizedString, ys []*token.TokenizedString, t float64, out []BatchResult, ctr *BatchCounters) {
	if len(ys) == 0 {
		return
	}
	if v.Unbounded || t >= 0 && (v.DisableBatch || !simd.Available() || len(ys) < batchMinCands || x.Count() == 0) {
		v.verifyBatchScalar(x, ys, t, out)
		return
	}
	v.StageBatch(x, ys, t, out)
	v.FlushBatch(ctr)
}

// verifyBatchScalar is the per-pair fallback with verdict parity.
func (v *Verifier) verifyBatchScalar(x token.TokenizedString, ys []*token.TokenizedString, t float64, out []BatchResult) {
	for i, y := range ys {
		sld, within, pruned := v.Verify(x, *y, t)
		out[i] = BatchResult{sld, within, pruned}
	}
}
