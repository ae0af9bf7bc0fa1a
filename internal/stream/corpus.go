package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/corpus"
	"repro/internal/token"
)

// NewShardedFromCorpus builds a concurrent matcher over a persistent
// corpus: the corpus's strings are bulk-loaded into the sharded index
// (index-only — warm loading never generates or verifies candidates, so
// a restart costs one linear pass over local state instead of re-serving
// the ingest traffic), ids are the corpus's StringIDs, and the matcher
// stays attached: every subsequent Add/AddAll first appends to the
// corpus WAL — durability precedes visibility — then indexes. Tombstoned
// corpus ids keep their slot in the id space but are neither indexed nor
// matchable.
//
// While a matcher is attached, route all writes through it; adding to
// the corpus directly would desynchronize the id spaces (the matcher
// detects the drift and fails the write rather than corrupt results).
func NewShardedFromCorpus(opt Options, shards int, pc *corpus.Corpus) (*ShardedMatcher, error) {
	m, err := NewShardedMatcher(opt, shards)
	if err != nil {
		return nil, err
	}
	markStorage := opt.MaxTokenFreq <= 0 && !opt.ExactTokensOnly
	m.warmLoad(pc.View(), markStorage)
	m.corpus = pc
	return m, nil
}

// warmLoad is the one warm load. The per-string work (rune decoding,
// probe extraction, prefix marking) runs chunked across GOMAXPROCS
// workers, and the index insertion runs one goroutine per shard — each
// walks every probe in ascending sid order and takes only the tokens
// hashing to its shard, so every posting list comes out in sid order,
// as one insert per string in sid order would leave it. No locks: the
// matcher is still private to its constructor, each slice header is
// written before the fan-out, and each shard is touched by exactly one
// goroutine. An empty corpus (every fresh data directory) loads nothing.
//
// With markStorage, each string's probe is prefix-marked by markPrefix
// against the view's live document frequencies, so tokens that sit in no
// string's prefix are never segment-indexed. That order is not the one
// the live-ingest path saw, which costs nothing: the storage-pruning
// argument (tokenIndex.insert) never consults the order.
func (m *ShardedMatcher) warmLoad(v *corpus.View, markStorage bool) {
	n := len(v.TC.Strings)
	// Phase 1 (serial, cheap): id-space headers. Appending one slot per
	// sid — tombstone or live — keeps matcher ids equal to corpus
	// StringIDs, so below id == sid.
	for sid := range v.TC.Strings {
		if !v.Alive[sid] {
			m.loadTombstone()
			continue
		}
		ts := v.TC.Strings[sid]
		id := int32(len(m.strings))
		m.strings = append(m.strings, ts)
		m.dead = append(m.dead, false)
		if ts.Count() == 0 {
			m.emptyIDs = append(m.emptyIDs, id)
		}
	}
	// Phase 2 (parallel over sid chunks): probes and prefix marks.
	// shardIDs caches shardOf per probe token so phase 3's per-shard
	// scans do not re-hash every token once per shard.
	probes := make([][]probeToken, n)
	shardIDs := make([][]int32, n)
	workers := max(1, min(runtime.GOMAXPROCS(0), n))
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var freqs []int32
			var keys []int64
			for sid := lo; sid < hi; sid++ {
				ts := v.TC.Strings[sid]
				if !v.Alive[sid] || ts.Count() == 0 {
					continue
				}
				probe := distinctProbe(ts)
				if markStorage {
					// Members[sid] lists the distinct tokens in probe order.
					freqs = freqs[:0]
					for _, tid := range v.TC.Members[sid] {
						freqs = append(freqs, v.TC.Freq[tid])
					}
					markPrefix(probe, freqs, m.opt.Threshold, ts, &keys)
				}
				sids := make([]int32, len(probe))
				for i := range probe {
					sids[i] = int32(shardOf(probe[i].s, len(m.shards)))
				}
				probes[sid] = probe
				shardIDs[sid] = sids
			}
		}(lo, hi)
	}
	wg.Wait()
	// Phase 3 (parallel over shards): insertion, ascending sid within
	// each shard.
	for si := range m.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := m.shards[si]
			var buf []probeToken
			for sid := 0; sid < n; sid++ {
				probe := probes[sid]
				if len(probe) == 0 {
					continue
				}
				buf = buf[:0]
				for i := range probe {
					if shardIDs[sid][i] == int32(si) {
						buf = append(buf, probe[i])
					}
				}
				if len(buf) > 0 {
					sh.ix.insert(buf, int32(sid))
				}
			}
		}(si)
	}
	wg.Wait()
}

// loadTombstone reserves an id for a deleted corpus string: it occupies
// its slot (keeping matcher ids equal to corpus StringIDs) but is not
// indexed and never matches — not even as an empty string.
func (m *ShardedMatcher) loadTombstone() {
	m.strings = append(m.strings, token.TokenizedString{})
	m.dead = append(m.dead, true)
}

// Delete tombstones a string in the live index (it stops matching
// immediately) and, on a corpus-backed matcher, durably in the WAL.
// This is the delete path to use while a matcher is attached — deleting
// straight on the corpus would leave the live index serving the string
// until the next restart. Safe for concurrent use.
func (m *ShardedMatcher) Delete(id int) error {
	m.addMu.Lock()
	defer m.addMu.Unlock()
	m.mu.RLock()
	live := id >= 0 && id < len(m.dead) && !m.dead[id]
	m.mu.RUnlock()
	if !live {
		return fmt.Errorf("stream: delete of id %d: %w", id, corpus.ErrNotFound)
	}
	if m.corpus != nil {
		if err := m.corpus.Delete(token.StringID(id)); err != nil {
			return err
		}
	}
	m.tombstone(id)
	return nil
}

// tombstone marks a live id dead in the index and counts it toward the
// next posting sweep. The caller holds addMu.
func (m *ShardedMatcher) tombstone(id int) {
	// Copy-on-write: concurrent queries hold snapshots of both slices.
	m.mu.Lock()
	dead := append([]bool(nil), m.dead...)
	dead[id] = true
	m.dead = dead
	if m.strings[id].Count() == 0 {
		empties := make([]int32, 0, len(m.emptyIDs))
		for _, e := range m.emptyIDs {
			if e != int32(id) {
				empties = append(empties, e)
			}
		}
		m.emptyIDs = empties
	}
	m.mu.Unlock()
	m.deletesSinceSweep++
	m.maybeSweepTombstones()
}

// sweepMinDeletes floors the amortized tombstone-sweep threshold: a
// sweep runs once max(sweepMinDeletes, Len/8) deletes have accumulated
// since the last one, so the per-delete amortized cost stays O(index/8)
// while short delete bursts never trigger full-index passes. A variable
// so tests can force sweeps on small corpora.
var sweepMinDeletes = 256

// maybeSweepTombstones compacts tombstoned ids out of the posting lists
// (and their orphaned tokens out of the segment index) once enough
// deletes have accumulated. Tombstoned entries are invisible to results
// either way — verification filters them against the dead mask — so the
// sweep is purely an occupancy reclaim: without it a churn-heavy corpus
// (delete-dominated workloads, a standby replaying years of churn)
// degrades every probe with postings full of ids that can never match.
// The caller holds addMu; shards are compacted one write-lock at a
// time, so queries interleave between shards but each shard flips
// atomically.
func (m *ShardedMatcher) maybeSweepTombstones() {
	m.mu.RLock()
	n := len(m.strings)
	dead := m.dead
	m.mu.RUnlock()
	threshold := n / 8
	if threshold < sweepMinDeletes {
		threshold = sweepMinDeletes
	}
	if m.deletesSinceSweep < threshold {
		return
	}
	m.deletesSinceSweep = 0
	m.sweeps.Add(1)
	// dead is a copy-on-write snapshot: Delete replaces the slice
	// wholesale (and no other Delete can run — the caller holds addMu),
	// so the reference stays frozen while shards compact against it.
	for _, sh := range m.shards {
		sh.mu.Lock()
		m.sweptEntries.Add(int64(sh.ix.sweepTombstones(dead)))
		sh.mu.Unlock()
	}
}

// ApplyShipped applies a batch of payloads shipped from a primary's
// corpus to a corpus-backed matcher: the batch is one corpus commit
// (corpus.ApplyShipped), and then, in order, its adds are indexed
// WITHOUT matching — a standby serves queries, it does not generate
// match results for replicated arrivals — and its deletes tombstone.
// Applying the primary's committed record stream in order reproduces
// its id space, alive mask and LSN exactly.
func (m *ShardedMatcher) ApplyShipped(payloads ...[]byte) error {
	if m.corpus == nil {
		return errors.New("stream: shipped records need an attached corpus")
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	if err := m.checkAligned(); err != nil {
		return err
	}
	recs, err := m.corpus.ApplyShipped(payloads)
	for _, r := range recs {
		if r.Delete {
			m.tombstone(int(r.SID))
			continue
		}
		// Priced and prefix-marked like a live Add's probe, so the
		// standby's index keeps the primary's lazy segment-storage shape.
		probe := distinctProbe(r.TS)
		m.markProbe(r.TS, probe)
		m.appendAndIndex(r.TS, probe)
	}
	return err
}

// Corpus returns the attached persistent corpus (nil for a purely
// in-memory matcher).
func (m *ShardedMatcher) Corpus() *corpus.Corpus { return m.corpus }

// AddDurable is AddAllDurable of one string.
func (m *ShardedMatcher) AddDurable(s string) (int, []Match, error) {
	id, matches, err := m.AddAllDurable([]string{s})
	if err != nil {
		return -1, nil, err
	}
	return id, matches[0], nil
}

// AddAllDurable is AddAll with the persistence error surfaced. The whole
// batch is one WAL commit, fsynced by the corpus's SyncEvery rule,
// before any element becomes visible; on failure nothing is indexed.
func (m *ShardedMatcher) AddAllDurable(names []string) (int, [][]Match, error) {
	toks := make([]token.TokenizedString, len(names))
	for i, s := range names {
		toks[i] = m.opt.Tokenizer(s)
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	if m.corpus != nil {
		if err := m.checkAligned(); err != nil {
			return -1, nil, err
		}
		if _, err := m.corpus.AddTokenizedBatch(toks); err != nil {
			return -1, nil, err
		}
	}
	first, matches := m.addBatch(toks)
	return first, matches, nil
}

// checkAligned verifies the corpus and matcher id spaces still agree
// (they drift only if a writer bypassed the matcher).
func (m *ShardedMatcher) checkAligned() error {
	m.mu.RLock()
	n := len(m.strings)
	m.mu.RUnlock()
	if cn := m.corpus.Len(); cn != n {
		return fmt.Errorf("stream: corpus id space (%d) out of step with matcher (%d); write through the matcher only", cn, n)
	}
	return nil
}
