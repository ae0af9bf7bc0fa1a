package stream

import (
	"repro/internal/core"
	"repro/internal/token"
)

// chunkResult is what verifyChunk returns for one candidate chunk: the
// matches in id order and the chunk's share of the verify funnel.
type chunkResult struct {
	matches                     []Match
	verified, pruned, sigPruned int64
}

// verifyChunk is the stream's one filter-and-verify routine. Every
// candidate of the ascending chunk cands that is not tombstoned (dead is
// optional) and passes the Sec. III-E filter chain (core.FilterPair)
// against ts is verified, where it passes, on an engine borrowed from
// verPool.
func (m *ShardedMatcher) verifyChunk(ts token.TokenizedString, strs []token.TokenizedString, dead []bool, cands []int32) chunkResult {
	var r chunkResult
	v := m.verPool.Get().(*core.Verifier)
	t := m.opt.Threshold
	la := ts.AggregateLen()
	for _, cand := range cands {
		if dead != nil && dead[cand] {
			continue
		}
		y := &strs[cand]
		if core.FilterPair(&ts, y, t) != core.Admitted {
			continue
		}
		r.verified++
		sld, within, pruned := v.Verify(&ts, y, t)
		if pruned {
			r.pruned++
		}
		if within {
			r.matches = append(r.matches, Match{ID: int(cand), SLD: sld, NSLD: core.NSLDFromSLD(sld, la, y.AggregateLen())})
		}
	}
	r.sigPruned, v.SigPruned = v.SigPruned, 0
	m.verPool.Put(v)
	return r
}
