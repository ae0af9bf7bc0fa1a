package stream

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/token"
)

// Batched insertion with end-of-batch verification.
//
// Verification never reads the index — it only needs the candidate ids
// and the immutable tokenized strings behind them — so a batch insert
// does not have to force each element's verdicts before indexing the
// element. Instead, generation and indexing proceed element by element
// while every filter-surviving (probe, candidate) pair is STAGED on a
// verification engine: its token-pair DP cells pool in the engine's
// lane pools alongside cells from every other element of the batch,
// and one flush at the end of the batch drives all pending verdicts.
// That is the cross-probe half of the staging engine's design: lanes
// that a single probe's survivors could only part-fill are topped up
// by the next element's survivors, so kernel lane fill stays near the
// vector width even when individual candidate lists are short. Every
// batch insert takes this path: where the engine cannot use the kernel
// (none live, DisableSIMD, DisableBoundedVerify, an ineligible probe) it
// decides each staged pair at once, and the flush has nothing left to do.
//
// Match semantics are unchanged — element i's matches are exactly what
// per-element Add would have returned (everything previously indexed
// plus earlier elements of the same batch), property-tested by
// TestSIMDEquivalenceAddAll and TestOracleEquivalence.

// stagedChunk is one contiguous candidate chunk of one batch element
// whose verdicts are pending in a verification engine's stager until
// the end-of-batch flush. ids and res are exact-size allocations: the
// stager retains &res[i] verdict pointers, so the backing array must
// stay addressable (and never regrow) until the flush.
type stagedChunk struct {
	ids []int32
	res []core.BatchResult
}

// stagedElem collects one batch element's pending chunks plus the
// matches resolved immediately (empty-probe elements match the
// token-less strings with no verification at all).
type stagedElem struct {
	la      int
	chunks  []stagedChunk
	matches []Match
}

// stageChunk filters one ascending candidate chunk through survivors
// and stages the survivors on the engine. Verdicts land in sc.res by the
// time the engine's FlushBatch returns.
func stageChunk(bv *batchVerifier, ts token.TokenizedString, strs []token.TokenizedString, dead []bool, cands []int32, t float64, sc *stagedChunk) {
	ids, ys := survivors(ts, strs, dead, cands, t, make([]int32, 0, len(cands)), make([]*token.TokenizedString, 0, len(cands)))
	if len(ids) == 0 {
		return
	}
	res := make([]core.BatchResult, len(ids))
	bv.ver.StageBatch(ts, ys, t, res)
	sc.ids, sc.res = ids, res
}

// addAllStaged runs one batch insert with end-of-batch verification:
// per element it generates candidates, stages the chunked survivors on
// per-slot verification engines through the worker pool, and indexes
// the element; one parallel flush then drives every pending verdict.
// Chunk c of every element lands on engine bvs[c], and the per-element
// barrier guarantees at most one in-flight job per engine — each
// engine is single-threaded scratch shared across the batch, which is
// exactly what lets lanes pool cells from many elements. The caller
// holds addMu.
func (m *ShardedMatcher) addAllStaged(toks []token.TokenizedString) [][]Match {
	slots := len(m.shards)
	bvs := make([]*batchVerifier, slots)
	for i := range bvs {
		bvs[i] = m.verPool.Get().(*batchVerifier)
	}
	elems := make([]stagedElem, len(toks))
	var staged int64
	var wg sync.WaitGroup
	for ei := range toks {
		ts := toks[ei]
		m.adds.Add(1)
		probe := distinctProbe(ts)
		el := &elems[ei]
		if ts.Count() == 0 {
			el.matches = m.emptyMatches()
		} else {
			el.la = ts.AggregateLen()
			if cands := m.genCandidates(ts, probe); len(cands) > 0 {
				// Snapshot after generation: every candidate id reached
				// strings before any posting list, and dead is kept the
				// same length.
				m.mu.RLock()
				strs := m.strings
				dead := m.dead
				m.mu.RUnlock()
				verifyStart := time.Now()
				chunks := verifyChunkCount(len(cands), slots)
				if chunks < 1 {
					chunks = 1
				}
				el.chunks = make([]stagedChunk, chunks)
				wg.Add(chunks)
				for c := 0; c < chunks; c++ {
					lo := c * len(cands) / chunks
					hi := (c + 1) * len(cands) / chunks
					bv, sc, chunk := bvs[c], &el.chunks[c], cands[lo:hi]
					m.pool.submit(func() {
						defer wg.Done()
						stageChunk(bv, ts, strs, dead, chunk, m.opt.Threshold, sc)
					})
				}
				wg.Wait()
				for c := range el.chunks {
					staged += int64(len(el.chunks[c].ids))
				}
				m.verifyWall.Add(int64(time.Since(verifyStart)))
			}
		}
		m.appendAndIndex(ts, probe, nil)
	}

	// ---- Flush: one parallel sweep drives every pending verdict ---------
	flushStart := time.Now()
	ctrs := make([]core.BatchCounters, slots)
	wg.Add(slots)
	for c := 0; c < slots; c++ {
		bv, ctr := bvs[c], &ctrs[c]
		m.pool.submit(func() {
			defer wg.Done()
			bv.ver.FlushBatch(ctr)
		})
	}
	wg.Wait()
	m.verifyWall.Add(int64(time.Since(flushStart)))
	var ctr core.BatchCounters
	for i := range ctrs {
		ctr.Add(ctrs[i])
		m.verPool.Put(bvs[i])
	}

	// ---- Assemble: chunks are contiguous ascending id runs, so chunk
	// order keeps each element's matches sorted by id. ------------------
	m.mu.RLock()
	strs := m.strings
	m.mu.RUnlock()
	out := make([][]Match, len(toks))
	var pruned int64
	for ei := range elems {
		el := &elems[ei]
		ms := el.matches
		for c := range el.chunks {
			var p int64
			ms, p = appendMatches(ms, el.chunks[c].ids, el.chunks[c].res, el.la, strs)
			pruned += p
		}
		out[ei] = ms
	}
	m.countVerify(staged, pruned, ctr)
	return out
}
