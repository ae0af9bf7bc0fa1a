package stream

import (
	"time"

	"repro/internal/token"
)

// The op path: Add, Query and AddAll are one routine, run, at every
// shard count. Per element it generates candidates on every shard,
// filters and verifies them in contiguous chunks through the worker pool
// (verifyChunk), and, for inserts, adds and indexes the element (index)
// before the next one is generated. A single Add or Query is an op of one element.
//
// Match semantics are those of per-element Add: element i's matches are
// everything previously indexed plus earlier elements of the same batch
// that pass the threshold, property-tested against the naive join by
// TestOracleEquivalence.

// run is the op path; insert, when set, adds and indexes an element after
// its match, and its caller holds addMu. Element i of the result holds
// its matches sorted by id.
func (m *ShardedMatcher) run(toks []token.TokenizedString, insert func()) [][]Match {
	out := make([][]Match, len(toks))
	var verified, pruned, sigPruned int64
	for ei, ts := range toks {
		if ts.Count() == 0 {
			out[ei] = m.emptyMatches()
		} else if cands := m.genCandidates(ts); len(cands) > 0 {
			// Snapshot after generation: every candidate id was
			// indexed, so strs and dead cover it.
			m.mu.RLock()
			strs := m.tc.Strings
			dead := m.dead
			m.mu.RUnlock()
			verifyStart := time.Now()
			chunks := make([]chunkResult, verifyChunkCount(len(cands), len(m.shards)))
			m.pool.Each(len(chunks), func(c int) {
				lo := c * len(cands) / len(chunks)
				hi := (c + 1) * len(cands) / len(chunks)
				chunks[c] = m.verifyChunk(ts, strs, dead, cands[lo:hi])
			})
			// Chunks are contiguous ascending id runs, so chunk order keeps
			// the matches sorted by id.
			ms := chunks[0].matches
			for _, r := range chunks[1:] {
				ms = append(ms, r.matches...)
			}
			for _, r := range chunks {
				verified += r.verified
				pruned += r.pruned
				sigPruned += r.sigPruned
			}
			out[ei] = ms
			m.verifyWall.Add(int64(time.Since(verifyStart)))
		}
		if insert != nil {
			insert()
		}
	}
	addNonZero(&m.verified, verified)
	addNonZero(&m.budgetPruned, pruned)
	addNonZero(&m.sigPruned, sigPruned)
	return out
}
