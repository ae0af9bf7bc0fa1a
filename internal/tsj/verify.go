package tsj

import (
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/token"
)

// verifier is the filter+verify stage shared by both dedup strategies. The
// corpus acts as the distributed cache the paper resolves identifiers
// against ("the tokenized-string identifiers are resolved to the tokenized
// strings", Sec. III-F). Reducers borrow a verification engine (scratch
// matrices, Hungarian state, the batch stager and its verdict slab)
// per reduce key, so concurrent reducers never share one, at most one
// engine per reduce worker is ever built, and steady-state verification
// allocates nothing per pair. Counters accumulate on the engines and are
// folded into the join's Stats by drain.
type verifier struct {
	corpus *token.Corpus
	opts   Options
	// mu guards idle: the engines no reducer is borrowing right now —
	// after the job, every engine built.
	mu   sync.Mutex
	idle []*pairVerifier
}

// slabSize is the number of staged verdicts an engine lets its stager
// owe before it flushes. Flushing per slab rather than once per job keeps
// the stager's arenas (they only reset when nothing is in flight) at a
// thousand pairs instead of the whole job's, for a handful of part-filled
// kernel invocations per flush.
const slabSize = 1024

// pairVerifier is one worker's verification state: the threshold-aware
// core engine, the shared-probe candidate group of the reduce key in
// hand, the slab of verdicts its stager still owes, and the results of
// the slabs already harvested. The stager holds pointers into res between
// StageBatch and FlushBatch, so the slab is a fixed array, never regrown.
type pairVerifier struct {
	v       core.Verifier
	groupID [][2]token.StringID
	groupY  []*token.TokenizedString

	n     int                         // pending verdicts in the slab
	pairs [slabSize][2]token.StringID // (a, b) with a < b
	res   [slabSize]core.BatchResult
	out   []Result

	// The engine's share of the kernel counters and of the verify funnel.
	ctr core.BatchCounters

	lengthPruned, lbPruned, verified, budgetPruned, results int64
}

// newVerifier builds the stage from the join options.
func newVerifier(c *token.Corpus, opts Options) *verifier {
	return &verifier{corpus: c, opts: opts}
}

// get borrows an idle engine, building one when every engine is in use.
// The options that choose how a pair is verified are read here and
// nowhere else: the core engine decides from them.
func (v *verifier) get() *pairVerifier {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := len(v.idle); n > 0 {
		pv := v.idle[n-1]
		v.idle = v.idle[:n-1]
		return pv
	}
	return &pairVerifier{v: core.Verifier{
		Greedy:       v.opts.Aligning == GreedyAligning,
		DisableBatch: v.opts.DisableSIMD,
		Unbounded:    v.opts.DisableBoundedVerify,
	}}
}

// put returns an engine borrowed with get.
func (v *verifier) put(pv *pairVerifier) {
	v.mu.Lock()
	v.idle = append(v.idle, pv)
	v.mu.Unlock()
}

// verifyKey is the one verification entry of the dedup reducers: it
// de-duplicates reduce key k's partner list (sorting it in place), runs
// the Sec. III-E filters and the cost accounting on every distinct pair,
// and verifies the survivors (Sec. III-F) on a borrowed engine.
//
// Survivors are STAGED on the engine (core.Verifier.StageBatch): with
// the kernel live, their token-distance cells pool in kernel lanes
// alongside cells staged by this engine's other reduce keys — cross-key
// pooling is what keeps lane fill near the vector width when partner
// lists are short — and the verdicts are deferred to drain; otherwise
// the engine decides each pair as it is staged. Partners with k < p
// share the probe Strings[k] in one staging call. Each partner with
// p < k is staged in its own (p, k) orientation, probe Strings[p]: the
// row-minima abort walks the probe's rows, so whether a rejected pair
// counts as budget-pruned depends on which string is the probe, and
// every pair must verify exactly as Verify(Strings[a], Strings[b]) with
// a < b would, whichever side the grouping rule keyed it on. Every pair
// is emitted by drain, not through ctx; join results are sorted before
// return.
func (v *verifier) verifyKey(k token.StringID, partners []token.StringID, ctx *mapreduce.ReduceCtx[Result]) {
	slices.Sort(partners)
	partners = slices.Compact(partners)
	pv := v.get()
	pv.groupID, pv.groupY = pv.groupID[:0], pv.groupY[:0]
	for _, p := range partners {
		a, b := normPair(k, p)
		x, y := &v.corpus.Strings[a], &v.corpus.Strings[b]
		if !v.admit(x, y, pv, ctx) {
			continue
		}
		if p < k {
			v.stage(pv, x, []*token.TokenizedString{y}, [][2]token.StringID{{a, b}})
			continue
		}
		pv.groupID = append(pv.groupID, [2]token.StringID{a, b})
		pv.groupY = append(pv.groupY, y)
	}
	if len(pv.groupY) > 0 {
		v.stage(pv, &v.corpus.Strings[k], pv.groupY, pv.groupID)
	}
	v.put(pv)
}

// admit runs the Sec. III-E filters on candidate (x, y) and, when it
// survives, charges the verification the paper's stated complexity.
func (v *verifier) admit(x, y *token.TokenizedString, pv *pairVerifier, ctx *mapreduce.ReduceCtx[Result]) bool {
	la, lb := x.AggregateLen(), y.AggregateLen()
	t := v.opts.Threshold
	// Filter 1: aggregate-length pruning (Lemma 6 lower bound). Costs one
	// comparison on id-attached metadata.
	if core.LengthPrune(la, lb, t) {
		pv.lengthPruned++
		return false
	}
	// Filter 2: token-length-histogram lower bound on SLD.
	ctx.AddCost(float64(x.Count() + y.Count()))
	if core.LowerBoundPrune(*x, *y, t) {
		pv.lbPruned++
		return false
	}
	// Verification cost: the bigraph construction O(L(x)*L(y)) plus the
	// alignment term — O(k^3) for the Hungarian algorithm (constant ~2 for
	// its augmentation passes) versus O(k^2 log k) for the greedy
	// selection (Sec. III-G.5).
	k := max(x.Count(), y.Count())
	align := 2 * float64(k*k*k)
	if v.opts.Aligning == GreedyAligning {
		align = float64(k*k) * math.Log2(float64(k)+1)
	}
	ctx.AddCost(float64(la*lb) + align)
	pv.verified++
	return true
}

// stage hands probe x's candidates ys to pv's stager, recording
// candidate i as pairs[i] next to its verdict slot. A full slab is
// harvested first; a group that straddles the slab's end is staged in two
// calls (the probe's runes are copied twice, nothing else).
func (v *verifier) stage(pv *pairVerifier, x *token.TokenizedString, ys []*token.TokenizedString, pairs [][2]token.StringID) {
	for len(ys) > 0 {
		if pv.n == slabSize {
			v.harvest(pv)
		}
		n := copy(pv.pairs[pv.n:], pairs)
		pv.v.StageBatch(*x, ys[:n], v.opts.Threshold, pv.res[pv.n:pv.n+n])
		pv.n += n
		ys, pairs = ys[n:], pairs[n:]
	}
}

// harvest drives pv's pending verdicts to completion and moves the
// qualifying pairs to pv.out, emptying the slab.
func (v *verifier) harvest(pv *pairVerifier) {
	pv.v.FlushBatch(&pv.ctr)
	for i, r := range pv.res[:pv.n] {
		if r.Pruned {
			pv.budgetPruned++
		}
		if !r.Within {
			continue
		}
		pv.results++
		a, b := pv.pairs[i][0], pv.pairs[i][1]
		la, lb := v.corpus.Strings[a].AggregateLen(), v.corpus.Strings[b].AggregateLen()
		pv.out = append(pv.out, Result{A: a, B: b, SLD: r.SLD, NSLD: core.NSLDFromSLD(r.SLD, la, lb)})
	}
	pv.n = 0
}

// drain harvests every engine and returns the staged results — they do
// not pass through the reducers' ctx — folding the engines' funnel and
// kernel counters into st. Callers run it once, after the verify job's
// mapreduce.Run returns, when every engine is idle again.
func (v *verifier) drain(st *Stats) []Result {
	var out []Result
	for _, pv := range v.idle {
		v.harvest(pv)
		out = append(out, pv.out...)
		st.LengthPruned += pv.lengthPruned
		st.LBPruned += pv.lbPruned
		st.Verified += pv.verified
		st.BudgetPruned += pv.budgetPruned
		st.Results += pv.results
		st.BatchedPairs += pv.ctr.Batched
		st.SIMDKernels += pv.ctr.Kernels
		st.SIMDLanes += pv.ctr.Lanes
		st.SigPruned += pv.ctr.SigPruned
		st.BatchScalarCells += pv.ctr.ScalarCells
	}
	return out
}
