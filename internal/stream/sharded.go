package stream

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/token"
	"repro/internal/workpool"
)

// ShardedMatcher is the incremental joiner. It reads one token space, a
// token.Corpus that interns every added string and holds the strings by
// id, the token runes and the document frequencies: its own when it runs
// in memory, the durable corpus's when it is attached to one
// (NewShardedFromCorpus). The inverted and segment indexes are
// partitioned across N shards by token id (shard i owns the ids ≡ i mod
// N; the MassJoin/PASS-JOIN partitioning carried over to the online
// path), and a persistent worker pool fans each arrival's candidate
// generation out to the shards and verifies the merged candidates in
// parallel chunks. Add, Query and AddAll run one op path (run, addall.go)
// at every shard count; one shard is the single-threaded matcher, whose
// pool starts no goroutine.
//
// Driven serially, Add returns the same match set (sorted by id) for any
// shard count; under the exact configuration it is the naive join's.
// Concurrently, writers are serialized with each other — ids are assigned
// in arrival order. One RWMutex guards the token space and every shard
// (an attached matcher's is the corpus's state lock): candidate
// generation (prefix marking and the shard fan-out) runs under its read
// lock, so Queries run alongside each other, and a writer takes the write
// lock only to install and index (index, the one insertion routine of
// warm loads, shipped batches and adds), to tombstone, or to sweep.
// Verification runs outside the lock.
//
// The token space's Freq holds the live document frequencies: a
// tombstone forgets its string (token.Corpus.Forget), as the durable
// corpus does, so the max-frequency gate and the prefix orders read the
// same counts before and after a restart, and on a standby.
//
// Close releases the worker pool; the matcher must not be used after.
type ShardedMatcher struct {
	opt    Options
	shards []*tokenIndex
	pool   *workpool.Pool

	// corpus, when non-nil, is the durable backing store, and att the
	// matcher's attachment to it: every write is one of its commits (see
	// NewShardedFromCorpus).
	corpus *corpus.Corpus
	att    *corpus.Attached

	// addMu serializes writers so ids are dense and match results are
	// deterministic; it is never held by pool workers.
	addMu sync.Mutex
	// deletesSinceSweep counts tombstones since the last posting sweep
	// (guarded by addMu); once it crosses the amortization threshold the
	// next delete pays for compacting dead ids out of every shard.
	deletesSinceSweep int
	// mu guards tc, dead, emptyIDs and every shard. tc is the token space:
	// its Strings are the matcher's strings by id, tombstoned ones
	// included, and its Freq counts the live ones. tc.Strings elements are
	// immutable once appended and dead is replaced copy-on-write by
	// tombstone, so verification may keep snapshots of both after
	// releasing mu. dead covers the ids indexed so far.
	mu       *sync.RWMutex
	tc       *token.Corpus
	dead     []bool
	emptyIDs []int32

	// verPool lends one verification engine (a core.Verifier: scratch
	// matrices, Hungarian state) to each verified chunk, and scratchPool
	// one segment-probe scratch (visited stamps, rolling hashes, partition
	// memo) to each probing worker, so the hot path reuses its scratch
	// without sharing it unsynchronized.
	verPool     sync.Pool
	scratchPool sync.Pool

	adds             atomic.Int64
	queries          atomic.Int64
	verified         atomic.Int64
	budgetPruned     atomic.Int64
	sigPruned        atomic.Int64
	prefixPruned     atomic.Int64
	segPrefixPruned  atomic.Int64
	segKeysProbed    atomic.Int64
	segTokensChecked atomic.Int64
	segTokensSimilar atomic.Int64
	candGenWall      atomic.Int64 // nanoseconds
	verifyWall       atomic.Int64 // nanoseconds
	sweeps           atomic.Int64
	sweptEntries     atomic.Int64
	closed           sync.Once
}

// ShardedStats is a snapshot of a ShardedMatcher's state and traffic.
type ShardedStats struct {
	// Strings is the number of indexed strings.
	Strings int
	// Shards is the partition count.
	Shards int
	// Adds and Queries count the operations served so far.
	Adds, Queries int64
	// Verified counts candidate pairs that reached verification.
	Verified int64
	// BudgetPruned counts verifications rejected early by the
	// threshold-derived SLD budget.
	BudgetPruned int64
	// PrefixPruned counts posting entries the prefix filter skipped at
	// probe time — shared-token candidates the unfiltered probe would
	// have generated.
	PrefixPruned int64
	// SegPrefixPruned counts probe tokens whose segment-index probe was
	// skipped by the segment prefix filter.
	SegPrefixPruned int64
	// SegKeysProbed / SegTokensChecked / SegTokensSimilar are the
	// similar-token probe funnel: segment-window fingerprint lookups,
	// distinct indexed tokens reaching the token-NLD check, and tokens
	// within the token threshold (whose postings became candidates).
	SegKeysProbed    int64
	SegTokensChecked int64
	SegTokensSimilar int64
	// SigPruned counts verifications the verifier's character-signature
	// pre-pass rejected before any DP cell (a subset of BudgetPruned).
	SigPruned int64
	// CandGenWall / VerifyWall accumulate the wall time spent generating
	// candidates (shard fan-out, merge, dedup) and verifying them.
	CandGenWall time.Duration
	VerifyWall  time.Duration
	// TokensPerShard counts, per shard, the tokens it owns (shard i owns
	// the token ids ≡ i mod Shards) that some live string holds. Token
	// ids are dense, so the counts differ by at most one until deletes
	// leave some token held by no live string.
	TokensPerShard []int
	// Sweeps counts amortized tombstone sweeps; SweptEntries the dead
	// posting entries they compacted away.
	Sweeps       int64
	SweptEntries int64
}

// Merge folds another snapshot into this one — the aggregation a
// cluster coordinator performs over its workers' stats. Counters and
// wall times sum; Shards sums too (the cluster's total partition
// count); TokensPerShard concatenates in argument order so per-shard
// balance stays inspectable across workers.
func (s *ShardedStats) Merge(o ShardedStats) {
	s.Strings += o.Strings
	s.Shards += o.Shards
	s.Adds += o.Adds
	s.Queries += o.Queries
	s.Verified += o.Verified
	s.BudgetPruned += o.BudgetPruned
	s.PrefixPruned += o.PrefixPruned
	s.SegPrefixPruned += o.SegPrefixPruned
	s.SegKeysProbed += o.SegKeysProbed
	s.SegTokensChecked += o.SegTokensChecked
	s.SegTokensSimilar += o.SegTokensSimilar
	s.SigPruned += o.SigPruned
	s.CandGenWall += o.CandGenWall
	s.VerifyWall += o.VerifyWall
	s.TokensPerShard = append(s.TokensPerShard, o.TokensPerShard...)
	s.Sweeps += o.Sweeps
	s.SweptEntries += o.SweptEntries
}

// NewShardedMatcher creates an empty matcher with the given shard count
// (<= 0 means GOMAXPROCS). The worker pool holds one goroutine per shard
// (none at one shard), so the shard count is also the parallelism knob.
func NewShardedMatcher(opt Options, shards int) (*ShardedMatcher, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	m := &ShardedMatcher{
		opt:    opt,
		shards: make([]*tokenIndex, shards),
		pool:   workpool.New(shards),
		mu:     new(sync.RWMutex),
		tc:     &token.Corpus{},
	}
	m.verPool.New = func() any {
		return &core.Verifier{Greedy: opt.Greedy}
	}
	m.scratchPool.New = func() any {
		return newProbeScratch(opt.Threshold)
	}
	for i := range m.shards {
		m.shards[i] = newTokenIndex(opt, i, shards)
	}
	return m, nil
}

// Shards returns the partition count.
func (m *ShardedMatcher) Shards() int { return len(m.shards) }

// Len returns the number of indexed strings.
func (m *ShardedMatcher) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.tc.Strings)
}

// Stats snapshots the matcher.
func (m *ShardedMatcher) Stats() ShardedStats {
	st := ShardedStats{
		Shards:           len(m.shards),
		Adds:             m.adds.Load(),
		Queries:          m.queries.Load(),
		Verified:         m.verified.Load(),
		BudgetPruned:     m.budgetPruned.Load(),
		PrefixPruned:     m.prefixPruned.Load(),
		SegPrefixPruned:  m.segPrefixPruned.Load(),
		SegKeysProbed:    m.segKeysProbed.Load(),
		SegTokensChecked: m.segTokensChecked.Load(),
		SegTokensSimilar: m.segTokensSimilar.Load(),
		SigPruned:        m.sigPruned.Load(),
		CandGenWall:      time.Duration(m.candGenWall.Load()),
		VerifyWall:       time.Duration(m.verifyWall.Load()),
		TokensPerShard:   make([]int, len(m.shards)),
		Sweeps:           m.sweeps.Load(),
		SweptEntries:     m.sweptEntries.Load(),
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	st.Strings = len(m.tc.Strings)
	for tid, f := range m.tc.Freq {
		if f > 0 {
			st.TokensPerShard[tid%len(m.shards)]++
		}
	}
	return st
}

// Close stops the worker pool and detaches the matcher from its corpus.
// The matcher must not be used afterwards.
func (m *ShardedMatcher) Close() {
	m.closed.Do(func() {
		m.pool.Close()
		if m.att != nil {
			m.att.Detach()
		}
	})
}

// Add matches s against everything previously added, then indexes it,
// returning the new string's id and the matches sorted by id. Safe for
// concurrent use; concurrent Adds are serialized in arrival order. On a
// corpus-backed matcher the record is WAL-appended first; a persistence
// failure returns (-1, nil) — callers that need the error use AddDurable.
func (m *ShardedMatcher) Add(s string) (int, []Match) {
	id, matches, err := m.AddDurable(s)
	if err != nil {
		return -1, nil
	}
	return id, matches
}

// AddAll adds a batch atomically with respect to other writers: the batch
// occupies the dense id range [first, first+len(names)). Element i of the
// returned slice holds the matches of names[i] — including matches to
// earlier names of the same batch. On a corpus-backed matcher the whole
// batch is committed to the WAL as one commit before any element is
// indexed; a persistence failure returns (-1, nil) — callers that need
// the error use AddAllDurable.
func (m *ShardedMatcher) AddAll(names []string) (first int, matches [][]Match) {
	first, matches, err := m.AddAllDurable(names)
	if err != nil {
		return -1, nil
	}
	return first, matches
}

// Query matches s against everything added so far without indexing it.
// Safe for concurrent use with Adds and other Queries; it observes every
// string whose Add completed before the call, and may observe a string
// being added concurrently.
func (m *ShardedMatcher) Query(s string) []Match {
	m.queries.Add(1)
	return m.run([]token.TokenizedString{m.opt.Tokenizer(s)}, nil)[0]
}

// indexNext indexes the string just added to the token space, as live.
// The caller holds mu's write lock.
func (m *ShardedMatcher) indexNext() {
	m.dead = append(m.dead, false)
	m.index(len(m.dead) - 1)
}

// indexFanOut is the shortest id range index spreads over the worker
// pool; a shorter one — a live add, a small shipped batch — runs inline.
const indexFanOut = 64

// index is the one insertion routine: it indexes the live strings
// [lo, n) of the token space, which the warm load (index(0)), a shipped
// batch (index(first), once per batch) and a live add (index(id)) have
// added. Where storage pruning applies (tokenIndex.prunesStorage) it
// first marks each string's prefix against the current frequencies; then
// each shard inserts the tokens it owns in ascending id, so every posting
// list stays in id order. A range of indexFanOut strings or more runs
// both passes through the worker pool, one job per shard. The caller
// holds mu's write lock.
func (m *ShardedMatcher) index(lo int) {
	hi := len(m.tc.Strings)
	for id := lo; id < hi; id++ {
		if !m.dead[id] && len(m.tc.Members[id]) == 0 {
			m.emptyIDs = append(m.emptyIDs, int32(id))
		}
	}
	jobs := len(m.shards)
	if hi-lo < indexFanOut {
		jobs = 1
	}
	// marks[id-lo][i] is the prefix mark of string id's i-th member.
	var marks [][]bool
	if m.shards[0].prunesStorage() {
		marks = make([][]bool, hi-lo)
		m.pool.Each(jobs, func(j int) {
			var freqs []int32
			var keys []int64
			for id := lo + j*(hi-lo)/jobs; id < lo+(j+1)*(hi-lo)/jobs; id++ {
				mem := m.tc.Members[id]
				if m.dead[id] || len(mem) == 0 {
					continue
				}
				freqs = freqs[:0]
				for _, tid := range mem {
					freqs = append(freqs, m.tc.Freq[tid])
				}
				mk := make([]bool, len(mem))
				markPrefix(freqs, m.opt.Threshold, &m.tc.Strings[id], &keys, func(i int) { mk[i] = true })
				marks[id-lo] = mk
			}
		})
	}
	n := token.TokenID(len(m.shards))
	m.pool.Each(jobs, func(j int) {
		for id := lo; id < hi; id++ {
			if m.dead[id] {
				continue
			}
			for i, tid := range m.tc.Members[id] {
				if jobs == 1 || tid%n == token.TokenID(j) {
					m.shards[tid%n].insert(m.tc, tid, marks != nil && marks[id-lo][i], int32(id))
				}
			}
		}
	})
}

// emptyMatches returns the live token-less strings: the matches of a
// token-less probe, which need no verification.
func (m *ShardedMatcher) emptyMatches() []Match {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Match, len(m.emptyIDs))
	for i, e := range m.emptyIDs {
		out[i] = Match{ID: int(e)}
	}
	return out
}

// verifyChunkCount splits n ascending candidates into at least one and
// at most shards verification chunks, of at least minPerChunk candidates
// each when there are several.
func verifyChunkCount(n, shards int) int {
	const minPerChunk = 16
	return max(1, min(n/minPerChunk, shards))
}

// genCandidates builds ts's probe, marks it (markProbe) and fans it out
// to every shard, merges, deduplicates and sorts the resulting candidate
// ids, and folds the probe counters into the matcher's stats. The caller
// has ruled out the empty probe.
func (m *ShardedMatcher) genCandidates(ts token.TokenizedString) []int32 {
	// ---- Generate: fan out to the shards --------------------------------
	genStart := time.Now()
	defer func() { m.candGenWall.Add(int64(time.Since(genStart))) }()
	// Every shard resolves the marked probe under the one read lock, so
	// the max-frequency gate judges the frequencies the marking used.
	probe := distinctProbe(ts)
	perShard := make([][]int32, len(m.shards))
	perCtr := make([]probeCounters, len(m.shards))
	func() {
		// Unlocked by defer: a corpus commit that this match is part of
		// must still take the write lock after a panic (corpus.Apply).
		m.mu.RLock()
		defer m.mu.RUnlock()
		m.markProbe(ts, probe)
		m.pool.Each(len(m.shards), func(i int) {
			var local []int32
			sc := m.scratchPool.Get().(*probeScratch)
			m.shards[i].candidates(m.tc, probe, sc, &perCtr[i], func(cand int32) { local = append(local, cand) })
			m.scratchPool.Put(sc)
			perShard[i] = local
		})
	}()
	var pctr probeCounters
	for i := range perCtr {
		pctr.add(&perCtr[i])
	}
	// segPrefixPruned is a per-probe-token count and every shard skips
	// the same pruned tokens; count them once, not once per shard.
	pctr.segPrefixPruned = perCtr[0].segPrefixPruned
	addNonZero(&m.prefixPruned, pctr.prefixPruned)
	addNonZero(&m.segPrefixPruned, pctr.segPrefixPruned)
	addNonZero(&m.segKeysProbed, pctr.segKeysProbed)
	addNonZero(&m.segTokensChecked, pctr.segTokensChecked)
	addNonZero(&m.segTokensSimilar, pctr.segTokensSimilar)

	// ---- Merge and deduplicate ------------------------------------------
	cands := perShard[0]
	for _, r := range perShard[1:] {
		cands = append(cands, r...)
	}
	if len(cands) == 0 {
		return nil
	}
	slices.Sort(cands)
	return slices.Compact(cands)
}

// markProbe stamps each probe token's id in the token space, prices the
// probe against the live frequencies and flags the tokens the prefix
// filters may skip at lookup time (markPrefix). The caller holds mu.
func (m *ShardedMatcher) markProbe(ts token.TokenizedString, probe []probeToken) {
	freqs := make([]int32, len(probe))
	for i := range probe {
		if tid, ok := m.tc.TokenIDOf(probe[i].s); ok {
			probe[i].tid = tid
			freqs[i] = m.tc.Freq[tid]
		}
	}
	// keys is per-call: Queries mark concurrently under the read lock, so
	// the scratch cannot live on the matcher.
	var keys []int64
	markPrefix(freqs, m.opt.Threshold, &ts, &keys, func(i int) { probe[i].nonPrefix = true })
}

// addNonZero folds a count into a stats counter, touching the atomic
// only when the count moved.
func addNonZero(c *atomic.Int64, v int64) {
	if v != 0 {
		c.Add(v)
	}
}
