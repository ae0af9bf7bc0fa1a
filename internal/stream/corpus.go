package stream

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/corpus"
	"repro/internal/token"
)

// NewShardedFromCorpus builds a concurrent matcher attached to a
// persistent corpus (corpus.Attach): its token space is the corpus's own
// token.Corpus and its lock the corpus's state lock. It bulk-indexes the
// live strings with index(0) and never matches them, so a restart costs
// one linear pass over local state. Tombstoned ids keep their slot but
// are neither indexed nor matchable. Every later write is one corpus
// commit (see commit), durable before it is visible; meanwhile the corpus
// refuses direct writes with corpus.ErrAttached, until Close detaches.
func NewShardedFromCorpus(opt Options, shards int, pc *corpus.Corpus) (*ShardedMatcher, error) {
	m, err := NewShardedMatcher(opt, shards)
	if err != nil {
		return nil, err
	}
	att, err := pc.Attach()
	if err != nil {
		m.Close()
		return nil, err
	}
	m.corpus, m.att, m.mu, m.tc = pc, att, att.Mu, att.TC
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dead = make([]bool, len(m.tc.Strings))
	for sid := range m.dead {
		m.dead[sid] = !att.Alive(token.StringID(sid))
	}
	m.index(0)
	return m, nil
}

// Delete tombstones a string in the live index (it stops matching
// immediately) and, on a corpus-backed matcher, durably in the WAL.
// Safe for concurrent use.
func (m *ShardedMatcher) Delete(id int) error {
	m.addMu.Lock()
	defer m.addMu.Unlock()
	m.mu.RLock()
	live := id >= 0 && id < len(m.dead) && !m.dead[id]
	m.mu.RUnlock()
	if !live {
		return fmt.Errorf("stream: delete of id %d: %w", id, corpus.ErrNotFound)
	}
	_, err := m.commit([]corpus.Record{{Delete: true, SID: token.StringID(id)}}, func(_ []corpus.Record, install func(int, func())) {
		install(1, func() {
			m.dead = slices.Clone(m.dead)
			m.tombstone(id)
		})
	})
	return err
}

// commit makes recs one write whose records apply installs (see
// corpus.Apply): a commit of the attached corpus, which installs them
// into the one token space, or, in memory, the matcher's own install
// into its own token space. It returns the id the first add takes.
func (m *ShardedMatcher) commit(recs []corpus.Record, apply corpus.Apply) (int, error) {
	if m.att != nil {
		first, _, err := m.att.Commit(recs, apply)
		return int(first), err
	}
	first, next := m.Len(), 0
	apply(recs, func(n int, then func()) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, r := range recs[next : next+n] {
			if r.Delete {
				m.tc.Forget(r.SID)
			} else {
				m.tc.Add(r.TS)
			}
		}
		next += n
		then()
	})
	return first, nil
}

// tombstone marks a live id dead, which the token space's Freq no longer
// counts (its install forgot it), and counts it toward the next posting
// sweep. The caller holds addMu and mu's write lock, and has replaced
// dead with a copy of its own since it last released mu: verification
// holds snapshots of dead.
func (m *ShardedMatcher) tombstone(id int) {
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
// Len counts the ids the dead mask covers, so within a shipped batch it
// is the ids before the delete. The caller holds addMu and mu's write
// lock.
func (m *ShardedMatcher) maybeSweepTombstones() {
	if m.deletesSinceSweep < max(sweepMinDeletes, len(m.dead)/8) {
		return
	}
	m.deletesSinceSweep = 0
	m.sweeps.Add(1)
	for _, ix := range m.shards {
		m.sweptEntries.Add(int64(ix.sweepTombstones(m.dead)))
	}
}

// ApplyShipped applies a batch of payloads shipped from a primary's
// corpus to a corpus-backed matcher as one corpus commit. Under one hold
// of the write lock the corpus installs the batch's records, the matcher
// tombstones its deletes in order, and it indexes the batch's live adds
// in one index call, WITHOUT matching — a standby serves queries, it
// does not generate match results for replicated arrivals. Applying the
// primary's committed record stream in order reproduces its id space,
// alive mask, LSN and frequencies exactly.
func (m *ShardedMatcher) ApplyShipped(payloads ...[]byte) error {
	if m.att == nil {
		return errors.New("stream: shipped records need an attached corpus")
	}
	recs, bad := corpus.DecodeShipped(payloads)
	m.addMu.Lock()
	defer m.addMu.Unlock()
	_, err := m.commit(recs, func(recs []corpus.Record, install func(int, func())) {
		install(len(recs), func() {
			first := len(m.dead)
			if slices.ContainsFunc(recs, func(r corpus.Record) bool { return r.Delete }) {
				m.dead = slices.Clone(m.dead) // once per batch; see tombstone
			}
			for _, r := range recs {
				if r.Delete {
					m.tombstone(int(r.SID))
				} else {
					m.dead = append(m.dead, false)
				}
			}
			m.index(first)
		})
	})
	return cmp.Or(err, bad)
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

// AddAllDurable is AddAll with the persistence error surfaced. On a
// corpus-backed matcher the whole batch is one WAL commit, fsynced by the
// corpus's SyncEvery rule before any element is matched or becomes
// visible; on failure nothing is indexed.
func (m *ShardedMatcher) AddAllDurable(names []string) (int, [][]Match, error) {
	toks := make([]token.TokenizedString, len(names))
	recs := make([]corpus.Record, len(names))
	for i, s := range names {
		toks[i] = m.opt.Tokenizer(s)
		recs[i].TS = toks[i]
	}
	m.addMu.Lock()
	defer m.addMu.Unlock()
	var matches [][]Match
	first, err := m.commit(recs, func(_ []corpus.Record, install func(int, func())) {
		m.adds.Add(int64(len(toks)))
		matches = m.run(toks, func() { install(1, m.indexNext) })
	})
	if err != nil {
		return -1, nil, err
	}
	return first, matches, nil
}
