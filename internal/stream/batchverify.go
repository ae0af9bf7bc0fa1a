package stream

import (
	"repro/internal/core"
	"repro/internal/token"
)

// batchVerifier couples a verification engine with the candidate-group
// scratch of the batched verify path: all of one probe's
// filter-surviving candidates are handed to core.Verifier.VerifyBatch in
// one call, which buckets their tokens by length and sweeps the
// Levenshtein cells a vector-lane-width at a time. The engine is built
// once from the matcher's options (NewShardedMatcher) and alone decides
// how a pair is verified: it falls back to the scalar engine, with
// identical verdicts, when the kernel is unavailable or DisableSIMD is
// set, and runs the unbounded reference under DisableBoundedVerify. Like
// the Verifier it wraps, a batchVerifier is single-threaded scratch: one
// per worker.
type batchVerifier struct {
	ver core.Verifier
	ids []int32
	ys  []*token.TokenizedString
	res []core.BatchResult
}

// survivors is the stream's one filter chain: it appends to ids and ys
// every candidate that is not tombstoned (dead is optional) and passes
// the Sec. III-E length and lower-bound prunes against ts. Both verify
// paths filter through it: verifyCands for one probe, stageChunk for an
// AddAll batch.
func survivors(ts token.TokenizedString, strs []token.TokenizedString, dead []bool, cands []int32, t float64, ids []int32, ys []*token.TokenizedString) ([]int32, []*token.TokenizedString) {
	la := ts.AggregateLen()
	for _, cand := range cands {
		if dead != nil && dead[cand] {
			continue
		}
		other := &strs[cand]
		if core.LengthPrune(la, other.AggregateLen(), t) {
			continue
		}
		if core.LowerBoundPrune(ts, *other, t) {
			continue
		}
		ids = append(ids, cand)
		ys = append(ys, other)
	}
	return ids, ys
}

// verifyCands filters one probe's candidates and verifies the survivors
// against ts at threshold t, appending matches to out in candidate order.
// Returns the extended slice plus the verified and budget-pruned counts
// for the caller's stats; kernel-level counters accumulate into ctr.
func (b *batchVerifier) verifyCands(ts token.TokenizedString, strs []token.TokenizedString, dead []bool, cands []int32, t float64, ctr *core.BatchCounters, out []Match) ([]Match, int64, int64) {
	b.ids, b.ys = survivors(ts, strs, dead, cands, t, b.ids[:0], b.ys[:0])
	n := len(b.ids)
	if n == 0 {
		return out, 0, 0
	}
	if cap(b.res) < n {
		b.res = make([]core.BatchResult, n, 2*n)
	}
	b.res = b.res[:n]
	b.ver.VerifyBatch(ts, b.ys, t, b.res, ctr)
	out, pruned := appendMatches(out, b.ids, b.res, ts.AggregateLen(), strs)
	return out, int64(n), pruned
}

// appendMatches turns the verdicts res of candidates ids, probed by a
// string of aggregate length la, into matches appended to ms, and
// returns the extended list and the budget-pruned count.
func appendMatches(ms []Match, ids []int32, res []core.BatchResult, la int, strs []token.TokenizedString) ([]Match, int64) {
	var pruned int64
	for i, r := range res {
		if r.Pruned {
			pruned++
		}
		if r.Within {
			ms = append(ms, Match{
				ID:   int(ids[i]),
				SLD:  r.SLD,
				NSLD: core.NSLDFromSLD(r.SLD, la, strs[ids[i]].AggregateLen()),
			})
		}
	}
	return ms, pruned
}
