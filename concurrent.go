package tsjoin

import "repro/internal/stream"

// ConcurrentMatcher is the concurrent incremental NSLD matcher: the
// inverted and segment indexes are partitioned across N shards by token
// id, each arrival's candidate generation fans out to the shards through
// a persistent worker pool, and verification runs in parallel. Results
// are the same for any shard count; Matcher is the one-shard case.
//
// Adds are serialized with each other (ids are assigned in arrival
// order); Queries run concurrently with each other, and with an Add
// except while it indexes its string. This is the serving-layer building
// block behind cmd/tsjserve.
type ConcurrentMatcher struct {
	m *stream.ShardedMatcher
}

// ConcurrentMatcherOptions configures a ConcurrentMatcher.
type ConcurrentMatcherOptions struct {
	MatcherOptions
	// Shards is the index partition count and parallelism knob
	// (0 = GOMAXPROCS).
	Shards int
}

// MatcherStats is a snapshot of a ConcurrentMatcher's state and traffic.
type MatcherStats = stream.ShardedStats

// NewConcurrentMatcher creates an empty concurrent matcher. Call Close
// when done to release the worker pool.
func NewConcurrentMatcher(opts ConcurrentMatcherOptions) (*ConcurrentMatcher, error) {
	m, err := stream.NewShardedMatcher(opts.MatcherOptions, opts.Shards)
	if err != nil {
		return nil, err
	}
	return &ConcurrentMatcher{m: m}, nil
}

// NewConcurrentMatcherFromCorpus warm-starts a concurrent matcher from a
// persistent corpus: every string already in the corpus is bulk-loaded
// into the index (no matching, no verification — a restart costs one
// linear pass over local state), ids are the corpus ids, and the matcher
// stays attached. It shares the corpus's token space, so each string is
// interned once, by the corpus, and each subsequent Add/AddAll/Delete is
// one corpus commit, durable before the change becomes visible, so the
// matcher can always be rebuilt, byte-identically, from the directory it
// left behind.
//
// While the matcher is attached it owns the corpus's write path: the
// corpus's own Add, AddBatch and Delete fail with ErrAttached. A corpus
// takes one matcher at a time. Close the matcher, which detaches it,
// before closing the corpus.
func NewConcurrentMatcherFromCorpus(c *Corpus, opts ConcurrentMatcherOptions) (*ConcurrentMatcher, error) {
	m, err := stream.NewShardedFromCorpus(opts.MatcherOptions, opts.Shards, c.c)
	if err != nil {
		return nil, err
	}
	return &ConcurrentMatcher{m: m}, nil
}

// Add matches s against every previously added string, then indexes it,
// returning the new string's id and the matches sorted by id. Safe for
// concurrent use.
func (m *ConcurrentMatcher) Add(s string) (id int, matches []Match) { return m.m.Add(s) }

// AddAll adds a batch atomically with respect to other writers: the batch
// occupies the dense id range [first, first+len(names)). Element i holds
// the matches of names[i], including matches to earlier batch elements.
// On a corpus-backed matcher it is one WAL commit (see AddAllDurable).
func (m *ConcurrentMatcher) AddAll(names []string) (first int, matches [][]Match) {
	return m.m.AddAll(names)
}

// AddDurable is Add with the persistence error surfaced (corpus-backed
// matchers only; on an in-memory matcher it never fails). On a WAL
// failure nothing is indexed and id is -1.
func (m *ConcurrentMatcher) AddDurable(s string) (id int, matches []Match, err error) {
	return m.m.AddDurable(s)
}

// AddAllDurable is AddAll with the persistence error surfaced: the batch
// is one WAL commit, fsynced by the corpus's SyncEvery rule, before any
// element is indexed.
func (m *ConcurrentMatcher) AddAllDurable(names []string) (first int, matches [][]Match, err error) {
	return m.m.AddAllDurable(names)
}

// Delete tombstones a string: it stops matching immediately, and on a
// corpus-backed matcher the delete is WAL-durable. It is the one delete
// path while a matcher is attached: Corpus.Delete then fails with
// ErrAttached.
func (m *ConcurrentMatcher) Delete(id int) error { return m.m.Delete(id) }

// Query matches s against everything added so far without indexing it.
// Safe for concurrent use with Adds and other Queries.
func (m *ConcurrentMatcher) Query(s string) []Match { return m.m.Query(s) }

// ApplyShipped applies a batch of payloads shipped from a primary
// corpus's WAL to a corpus-backed matcher: persisted locally first, as
// one commit, then indexed in order without matching (a standby serves
// queries; it does not generate match results for replicated arrivals),
// up to the first invalid record, whose error it returns. Applying the
// primary's committed stream in order reproduces its id space, alive
// mask and LSN exactly.
func (m *ConcurrentMatcher) ApplyShipped(payloads ...[]byte) error {
	return m.m.ApplyShipped(payloads...)
}

// LSN returns the backing corpus's logical sequence number (0 for an
// in-memory matcher) — the replication offset space.
func (m *ConcurrentMatcher) LSN() uint64 {
	if c := m.m.Corpus(); c != nil {
		return c.LSN()
	}
	return 0
}

// Degraded reports the backing corpus's degraded state (see
// Corpus.Degraded): nil while healthy or for an in-memory matcher,
// otherwise an ErrDegraded-wrapped error. Queries keep serving from
// the live index either way; durable writes fail fast until the corpus
// is healed (Corpus.Recover).
func (m *ConcurrentMatcher) Degraded() error {
	if c := m.m.Corpus(); c != nil {
		return c.Degraded()
	}
	return nil
}

// Len returns the number of indexed strings.
func (m *ConcurrentMatcher) Len() int { return m.m.Len() }

// Shards returns the index partition count.
func (m *ConcurrentMatcher) Shards() int { return m.m.Shards() }

// Stats snapshots the matcher's state and traffic counters.
func (m *ConcurrentMatcher) Stats() MatcherStats { return m.m.Stats() }

// Close stops the worker pool and detaches the matcher from its corpus,
// which then takes direct writes again. The matcher must not be used
// afterwards.
func (m *ConcurrentMatcher) Close() { m.m.Close() }
