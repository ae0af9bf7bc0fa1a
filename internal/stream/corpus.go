package stream

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/corpus"
	"repro/internal/token"
)

// NewShardedFromCorpus builds a concurrent matcher over a persistent
// corpus: the matcher adopts a view of the corpus's token space as its own
// (ids are the corpus's StringIDs and token ids, its frequencies the
// corpus's live ones, and nothing is re-interned) and bulk-indexes its
// live strings (index-only — warm loading never generates or verifies
// candidates, so a restart costs one linear pass over local state
// instead of re-serving the ingest traffic).
// The matcher stays attached: every subsequent Add/AddAll first appends
// to the corpus WAL — durability precedes visibility — then indexes.
// Tombstoned corpus ids keep their slot in the id space but are neither
// indexed nor matchable.
//
// While a matcher is attached, route all writes through it; adding to
// the corpus directly would desynchronize the id spaces (the matcher
// detects the drift and fails the write rather than corrupt results).
func NewShardedFromCorpus(opt Options, shards int, pc *corpus.Corpus) (*ShardedMatcher, error) {
	m, err := NewShardedMatcher(opt, shards)
	if err != nil {
		return nil, err
	}
	m.warmLoad(pc.View())
	m.corpus = pc
	return m, nil
}

// warmLoad adopts the view's token space, whose Freq holds the live
// document frequencies, and indexes its live strings through the one
// insertion routine, index(0). An empty corpus (every fresh data
// directory) loads nothing.
func (m *ShardedMatcher) warmLoad(v *corpus.View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tc = v.TC
	m.dead = make([]bool, len(v.Alive))
	for sid, alive := range v.Alive {
		m.dead[sid] = !alive
	}
	m.index(0)
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
	m.mu.Lock()
	m.dead = slices.Clone(m.dead)
	m.tombstone(id)
	m.mu.Unlock()
	return nil
}

// tombstone marks a live id dead, uncounts it from the live document
// frequencies (token.Corpus.Forget, as the durable corpus does) and
// counts it toward the next posting sweep. The caller holds addMu and
// mu's write lock, and has replaced dead with a copy of its own since
// it last released mu: verification holds snapshots of dead.
func (m *ShardedMatcher) tombstone(id int) {
	m.tc.Forget(token.StringID(id))
	m.dead[id] = true
	if m.tc.Strings[id].Count() == 0 {
		m.emptyIDs = slices.DeleteFunc(m.emptyIDs, func(e int32) bool { return e == int32(id) })
	}
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
// The caller holds addMu and mu's write lock.
func (m *ShardedMatcher) maybeSweepTombstones() {
	if m.deletesSinceSweep < max(sweepMinDeletes, len(m.tc.Strings)/8) {
		return
	}
	m.deletesSinceSweep = 0
	m.sweeps.Add(1)
	for _, ix := range m.shards {
		m.sweptEntries.Add(int64(ix.sweepTombstones(m.dead)))
	}
}

// ApplyShipped applies a batch of payloads shipped from a primary's
// corpus to a corpus-backed matcher: the batch is one corpus commit
// (corpus.ApplyShipped). Then, under one write lock, its adds are
// interned and its deletes tombstoned in order, and the batch's live
// adds are indexed in one index call, WITHOUT matching — a standby
// serves queries, it does not generate match results for replicated
// arrivals. Applying the primary's committed record stream in order
// reproduces its id space, alive mask, LSN and frequencies exactly.
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
	m.mu.Lock()
	defer m.mu.Unlock()
	first := len(m.tc.Strings)
	if slices.ContainsFunc(recs, func(r corpus.Record) bool { return r.Delete }) {
		m.dead = slices.Clone(m.dead) // once per batch; see tombstone
	}
	for _, r := range recs {
		if r.Delete {
			m.tombstone(int(r.SID))
		} else {
			m.intern(r.TS)
		}
	}
	m.index(first)
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
	n := len(m.tc.Strings)
	m.mu.RUnlock()
	if cn := m.corpus.Len(); cn != n {
		return fmt.Errorf("stream: corpus id space (%d) out of step with matcher (%d); write through the matcher only", cn, n)
	}
	return nil
}
