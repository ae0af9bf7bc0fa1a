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
// vector width even when individual candidate lists are short.
//
// Match semantics are unchanged — element i's matches are exactly what
// per-element Add would have returned (everything previously indexed
// plus earlier elements of the same batch), property-tested by
// TestSIMDEquivalenceAddAll and TestSIMDEquivalenceShardedAddAll.

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

// stageChunk filters one ascending candidate chunk (tombstone mask,
// length prune, histogram lower bound — the same funnel as
// batchVerifier.verifyCands) and stages the survivors on the engine.
// Verdicts land in sc.res by the time the engine's FlushBatch returns.
func stageChunk(bv *batchVerifier, ts token.TokenizedString, strs []token.TokenizedString, dead []bool, cands []int32, t float64, sc *stagedChunk) {
	la := ts.AggregateLen()
	ids := make([]int32, 0, len(cands))
	ys := make([]*token.TokenizedString, 0, len(cands))
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
	if len(ids) == 0 {
		return
	}
	res := make([]core.BatchResult, len(ids))
	bv.ver.StageBatch(ts, ys, t, res)
	sc.ids, sc.res = ids, res
}

// appendChunkMatches folds one flushed chunk's verdicts into a match
// list, returning the extended list and the budget-pruned count.
func appendChunkMatches(ms []Match, sc *stagedChunk, la int, strs []token.TokenizedString) ([]Match, int64) {
	var pruned int64
	for i, r := range sc.res {
		if r.Pruned {
			pruned++
		}
		if r.Within {
			ms = append(ms, Match{
				ID:   int(sc.ids[i]),
				SLD:  r.SLD,
				NSLD: core.NSLDFromSLD(r.SLD, la, strs[sc.ids[i]].AggregateLen()),
			})
		}
	}
	return ms, pruned
}

// AddAll adds a batch of raw strings, returning the first assigned id
// and, per element, the matches per-element Add would have returned
// (everything previously added plus earlier elements of the same
// batch, sorted by id). When the batch kernels are live the whole
// batch's verdicts are staged cross-probe and flushed once at the end;
// otherwise it degrades to per-element Add.
func (m *Matcher) AddAll(names []string) (int, [][]Match) {
	first := len(m.strings)
	out := make([][]Match, len(names))
	if len(names) < 2 || m.opt.DisableSIMD || m.opt.DisableBoundedVerify || !core.BatchKernelAvailable() {
		for i, s := range names {
			out[i] = m.Add(s)
		}
		return first, out
	}

	t := m.opt.Threshold
	elems := make([]stagedElem, len(names))
	for ei, s := range names {
		ts := m.opt.Tokenizer(s)
		id := int32(len(m.strings))
		probe := distinctProbe(ts)
		el := &elems[ei]
		if ts.Count() == 0 {
			for _, e := range m.emptyIDs {
				el.matches = append(el.matches, Match{ID: int(e)})
			}
			m.strings = append(m.strings, ts)
			m.seen = append(m.seen, 0)
			m.emptyIDs = append(m.emptyIDs, id)
			continue
		}
		el.la = ts.AggregateLen()
		cands := m.genCandidates(ts, probe)
		verifyStart := time.Now()
		var sc stagedChunk
		stageChunk(&m.bver, ts, m.strings, nil, cands, t, &sc)
		if len(sc.ids) > 0 {
			m.verified += int64(len(sc.ids))
			el.chunks = append(el.chunks, sc)
		}
		m.verifyWall += time.Since(verifyStart)
		m.strings = append(m.strings, ts)
		m.seen = append(m.seen, 0)
		m.ix.insert(probe, id)
	}

	flushStart := time.Now()
	m.bver.ver.FlushBatch(&m.batchCtr)
	m.verifyWall += time.Since(flushStart)

	for ei := range elems {
		el := &elems[ei]
		ms := el.matches
		for c := range el.chunks {
			var pruned int64
			ms, pruned = appendChunkMatches(ms, &el.chunks[c], el.la, m.strings)
			m.budgetPruned += pruned
		}
		sortMatches(ms)
		out[ei] = ms
	}
	return first, out
}

// canStageAddAll reports whether a batch insert can defer its verdicts
// to an end-of-batch flush through the cross-probe staging engine.
func (m *ShardedMatcher) canStageAddAll(n int) bool {
	return n >= 2 && !m.opt.DisableSIMD && !m.opt.DisableBoundedVerify && core.BatchKernelAvailable()
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
			m.mu.RLock()
			el.matches = make([]Match, len(m.emptyIDs))
			for i, e := range m.emptyIDs {
				el.matches[i] = Match{ID: int(e)}
			}
			m.mu.RUnlock()
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

		// Index exactly like addTokenized: strings first, postings second,
		// so a concurrent Query that discovers id in a shard's postings is
		// guaranteed to find strings[id].
		m.mu.Lock()
		id := int32(len(m.strings))
		m.strings = append(m.strings, ts)
		m.dead = append(m.dead, false)
		if ts.Count() == 0 {
			m.emptyIDs = append(m.emptyIDs, id)
		}
		m.mu.Unlock()
		if ts.Count() > 0 {
			m.insertProbe(probe, id, nil, true)
		}
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
	if staged > 0 {
		m.verified.Add(staged)
	}
	if ctr.Batched > 0 {
		m.batchedPairs.Add(ctr.Batched)
	}
	if ctr.Kernels > 0 {
		m.simdKernels.Add(ctr.Kernels)
		m.simdLanes.Add(ctr.Lanes)
	}
	if ctr.ScalarCells > 0 {
		m.batchScalarCells.Add(ctr.ScalarCells)
	}
	if ctr.SigPruned > 0 {
		m.sigPruned.Add(ctr.SigPruned)
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
			ms, p = appendChunkMatches(ms, &el.chunks[c], el.la, strs)
			pruned += p
		}
		out[ei] = ms
	}
	if pruned > 0 {
		m.budgetPruned.Add(pruned)
	}
	return out
}
