package tsj

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/token"
)

// verifier is the filter+verify stage shared by both dedup strategies. The
// corpus acts as the distributed cache the paper resolves identifiers
// against ("the tokenized-string identifiers are resolved to the tokenized
// strings", Sec. III-F). Each reduce worker owns one verification engine
// (scratch matrices, Hungarian state), built on its first key, so
// concurrent reducers never share one and steady-state verification
// allocates nothing per pair. Funnel counters accumulate on the engines
// and are folded into the join's Stats by fold.
type verifier struct {
	corpus *token.Corpus
	opts   Options
	// engines[w] is reduce worker w's engine (mapreduce.ReduceCtx.Worker);
	// nil until that worker's first key.
	engines []*pairVerifier
}

// pairVerifier is one worker's verification state: the threshold-aware
// core engine and its share of the verify funnel.
type pairVerifier struct {
	v core.Verifier

	lengthPruned, lbPruned, verified, budgetPruned, results int64
}

// newVerifier builds the stage from the join options for jobs of the
// given worker count (mapreduce.Config.Workers).
func newVerifier(c *token.Corpus, opts Options, workers int) *verifier {
	return &verifier{corpus: c, opts: opts, engines: make([]*pairVerifier, workers)}
}

// engine returns the engine of the worker running ctx, building it on the
// worker's first key. The options that choose how a pair is verified are
// read here and nowhere else: the core engine decides from them.
func (v *verifier) engine(ctx *mapreduce.ReduceCtx[Result]) *pairVerifier {
	pv := v.engines[ctx.Worker()]
	if pv == nil {
		pv = &pairVerifier{v: core.Verifier{Greedy: v.opts.Aligning == GreedyAligning}}
		v.engines[ctx.Worker()] = pv
	}
	return pv
}

// verifyKey is the one verification entry of the dedup reducers: it
// de-duplicates reduce key k's partner list (sorting it in place), runs
// the Sec. III-E filters and the cost accounting on every distinct pair,
// verifies the survivors (Sec. III-F) on the worker's engine and emits the
// qualifying ones through ctx. Each pair (a, b), a < b, verifies as
// Verify(Strings[a], Strings[b]) whichever side the grouping rule keyed
// it on: the row-minima abort walks the first string's rows, so whether a
// rejected pair counts as budget-pruned depends on the orientation. Join
// results are sorted before return.
func (v *verifier) verifyKey(k token.StringID, partners []token.StringID, ctx *mapreduce.ReduceCtx[Result]) {
	slices.Sort(partners)
	partners = slices.Compact(partners)
	pv := v.engine(ctx)
	for _, p := range partners {
		a, b := normPair(k, p)
		x, y := &v.corpus.Strings[a], &v.corpus.Strings[b]
		if !v.admit(x, y, pv, ctx) {
			continue
		}
		sld, within, pruned := pv.v.Verify(x, y, v.opts.Threshold)
		if pruned {
			pv.budgetPruned++
		}
		if within {
			pv.results++
			ctx.Emit(Result{A: a, B: b, SLD: sld, NSLD: core.NSLDFromSLD(sld, x.AggregateLen(), y.AggregateLen())})
		}
	}
}

// admit runs the Sec. III-E filters on candidate (x, y) and, when it
// survives, charges the verification the paper's stated complexity.
func (v *verifier) admit(x, y *token.TokenizedString, pv *pairVerifier, ctx *mapreduce.ReduceCtx[Result]) bool {
	la, lb := x.AggregateLen(), y.AggregateLen()
	// Filter 1, aggregate-length pruning (Lemma 6 lower bound), costs one
	// comparison on id-attached metadata. Filter 2, the token-length
	// histogram lower bound on SLD, is charged whenever it runs.
	f := core.FilterPair(x, y, v.opts.Threshold)
	if f == core.LengthFiltered {
		pv.lengthPruned++
		return false
	}
	ctx.AddCost(float64(x.Count() + y.Count()))
	if f == core.HistogramFiltered {
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

// fold adds every engine's funnel counters to st. Callers run it once,
// after the verify job's mapreduce.Run returns.
func (v *verifier) fold(st *Stats) {
	for _, pv := range v.engines {
		if pv == nil {
			continue
		}
		st.LengthPruned += pv.lengthPruned
		st.LBPruned += pv.lbPruned
		st.Verified += pv.verified
		st.BudgetPruned += pv.budgetPruned
		st.Results += pv.results
		st.SigPruned += pv.v.SigPruned
	}
}
