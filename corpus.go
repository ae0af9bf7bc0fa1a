package tsjoin

import (
	"repro/internal/corpus"
	"repro/internal/iofault"
	"repro/internal/token"
	"repro/internal/tsj"
)

// ErrNotFound marks a Delete of an id that does not exist or is already
// deleted (a caller error — check with errors.Is to distinguish it from
// persistence failures).
var ErrNotFound = corpus.ErrNotFound

// ErrDegraded marks a corpus whose write path has been sealed by a
// storage failure (a failed WAL fsync or rollback, or a failed
// directory fsync): mutations fail fast with it while reads keep
// serving from memory. Check with errors.Is; heal with Recover (or
// Snapshot), which rotates to a fresh on-disk generation.
var ErrDegraded = corpus.ErrDegraded

// ErrShipBehind and ErrShipAhead report a ShipFrom offset the corpus
// cannot serve incrementally — older than the retained ship log, or
// beyond the committed LSN (a diverged follower). Either way the
// follower must be re-seeded with a snapshot (SnapshotBytes).
var (
	ErrShipBehind = corpus.ErrShipBehind
	ErrShipAhead  = corpus.ErrShipAhead
)

// Corpus is a durable, mutable corpus of tokenized strings: adds and
// deletes are persisted through a CRC-framed write-ahead log, state is
// checkpointed into versioned binary snapshots, and a process restart
// (OpenCorpus on the same directory) recovers the exact corpus from
// snapshot + WAL replay. The corpus keeps its live token document
// frequencies, and its joins read them; each join derives its own prefix
// order from them, as the package-level joins do.
//
// All methods are safe for concurrent use. To serve live traffic over a
// corpus, attach it to a matcher with NewConcurrentMatcherFromCorpus —
// and then route all writes through the matcher.
type Corpus struct {
	c *corpus.Corpus
}

// CorpusOptions configures OpenCorpus.
type CorpusOptions struct {
	// Tokenizer maps raw strings to token multisets for Add; the WAL
	// stores tokenized forms, so recovery never depends on it. Defaults
	// to whitespace+punctuation.
	Tokenizer Tokenizer
	// SyncEvery is the one fsync rule, checked at the end of every commit
	// (an Add, an AddBatch or a Delete): fsync once SyncEvery or more
	// records are pending. 1, the default, makes every commit durable
	// when it returns, at one fsync per batch. Larger values trade the
	// tail of the log for throughput, and an AddBatch then follows the
	// rule like an Add instead of forcing its own fsync.
	SyncEvery int
	// DisableSync skips fsync entirely (benchmarks and throwaway data).
	DisableSync bool
	// FS overrides the filesystem the durability layer runs over; nil
	// means the real OS filesystem. It exists for fault-injection tests
	// (see internal/iofault), which is why its type is internal: an
	// injector exercises every WAL/snapshot recovery path by failing a
	// chosen write, fsync, or rename.
	FS iofault.FS
}

// CorpusStats snapshots a corpus's state and persistence counters.
type CorpusStats = corpus.Stats

// OpenCorpus opens (creating if empty) the corpus persisted in dir: the
// newest valid snapshot is loaded and the write-ahead log replayed — a
// torn or corrupt WAL tail is detected via CRC and cleanly ignored.
func OpenCorpus(dir string, opts CorpusOptions) (*Corpus, error) {
	c, err := corpus.Open(dir, corpus.Options{
		Tokenizer:   opts.Tokenizer,
		SyncEvery:   opts.SyncEvery,
		DisableSync: opts.DisableSync,
		FS:          opts.FS,
	})
	if err != nil {
		return nil, err
	}
	return &Corpus{c: c}, nil
}

// Add appends one string durably and returns its id (dense, starting at
// 0, stable across restarts).
func (c *Corpus) Add(name string) (int, error) {
	id, err := c.c.Add(name)
	return int(id), err
}

// AddBatch appends a batch as one commit, returning the first id of the
// dense range the batch occupies.
func (c *Corpus) AddBatch(names []string) (int, error) {
	toks := make([]token.TokenizedString, len(names))
	tok := c.c.Tokenizer()
	for i, n := range names {
		toks[i] = tok(n)
	}
	first, err := c.c.AddTokenizedBatch(toks)
	return int(first), err
}

// Delete durably tombstones a string: it stops participating in joins
// and in matchers built later from this corpus; its id is never reused.
// If a ConcurrentMatcher is currently attached (via
// NewConcurrentMatcherFromCorpus), delete through the matcher instead —
// ConcurrentMatcher.Delete updates the live index and the WAL together,
// while this method alone leaves the attached index serving the string
// until its next restart.
func (c *Corpus) Delete(id int) error { return c.c.Delete(token.StringID(id)) }

// Len returns the total id space (live strings plus tombstones); Live
// counts only live strings.
func (c *Corpus) Len() int  { return c.c.Len() }
func (c *Corpus) Live() int { return c.c.Live() }

// SelfJoin joins the live strings of the corpus under opts.Threshold,
// reading the corpus's live token frequencies instead of counting them.
// Results use corpus ids and are exactly what SelfJoin on the same live
// strings returns.
func (c *Corpus) SelfJoin(opts Options) ([]Pair, error) {
	pairs, _, err := c.SelfJoinStats(opts)
	return pairs, err
}

// SelfJoinStats is SelfJoin plus the pipeline statistics.
func (c *Corpus) SelfJoinStats(opts Options) ([]Pair, *Stats, error) {
	results, st, err := tsj.SelfJoinCorpus(c.c, opts.tsj())
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]Pair, len(results))
	for i, r := range results {
		pairs[i] = Pair{A: int(r.A), B: int(r.B), SLD: r.SLD, NSLD: r.NSLD}
	}
	return pairs, st, nil
}

// Join performs a bipartite join of names against the corpus's live
// strings: every returned Pair has A = a corpus id and B = an index
// into names with NSLD(corpus[A], names[B]) <= opts.Threshold. Names
// are tokenized with opts.Tokenizer, or, when it is nil, with the
// corpus's own (CorpusOptions.Tokenizer), so a probe tokenizes as Add
// would have stored it. The corpus side's token frequencies are read
// from the corpus instead of counted; results are exactly what the
// package-level Join on (live corpus strings, names) returns with
// Options.Tokenizer set to the corpus's tokenizer.
func (c *Corpus) Join(names []string, opts Options) ([]Pair, error) {
	pairs, _, err := c.JoinStats(names, opts)
	return pairs, err
}

// JoinStats is Join plus the pipeline statistics.
func (c *Corpus) JoinStats(names []string, opts Options) ([]Pair, *Stats, error) {
	tok := opts.Tokenizer
	if tok == nil {
		tok = c.c.Tokenizer()
	}
	probes := make([]TokenizedString, len(names))
	for i, s := range names {
		probes[i] = tok(s)
	}
	return c.JoinTokenized(probes, opts)
}

// JoinTokenized is JoinStats over already-tokenized probes (the form
// cluster workers receive probe sets in — token multisets travel the
// wire, so no tokenizer round trip can disagree with the corpus's).
func (c *Corpus) JoinTokenized(probes []TokenizedString, opts Options) ([]Pair, *Stats, error) {
	results, st, err := tsj.JoinCorpus(c.c, probes, opts.tsj())
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]Pair, len(results))
	for i, r := range results {
		pairs[i] = Pair{A: int(r.A), B: int(r.B), SLD: r.SLD, NSLD: r.NSLD}
	}
	return pairs, st, nil
}

// LiveTokens dumps the live corpus as (id, sorted token multiset) rows
// — the probe-side feed of a distributed join, where token multisets
// (not raw strings) travel the wire so no per-node tokenizer drift can
// split the cluster's notion of a string.
func (c *Corpus) LiveTokens() (ids []int, tokens [][]string) {
	v := c.c.View()
	for sid, ok := range v.Alive {
		if !ok {
			continue
		}
		ids = append(ids, sid)
		tokens = append(tokens, v.TC.Strings[sid].Tokens)
	}
	return ids, tokens
}

// Snapshot checkpoints the corpus into a new snapshot generation and
// starts a fresh WAL; Compact additionally removes older generations,
// retaining the newest prior one as a corruption fallback, so disk
// usage is bounded to two snapshots plus two logs.
func (c *Corpus) Snapshot() error { return c.c.Snapshot() }
func (c *Corpus) Compact() error  { return c.c.Compact() }

// Sync forces any batched WAL appends to stable storage.
func (c *Corpus) Sync() error { return c.c.Sync() }

// Degraded reports the corpus's degraded state: nil while healthy,
// otherwise an ErrDegraded-wrapped error naming the storage failure
// that sealed the write path. Reads are unaffected by degradation.
func (c *Corpus) Degraded() error { return c.c.Degraded() }

// Recover attempts to heal a degraded corpus by checkpointing the
// in-memory state — exactly the acknowledged mutations — into a fresh
// generation through new file descriptors. A no-op when healthy.
// Retrying the failed fsync itself would be unsound: the kernel may
// have dropped the dirty pages and would report a hollow success.
func (c *Corpus) Recover() error { return c.c.Recover() }

// LSN returns the corpus's logical sequence number: the total count of
// committed mutations (adds plus deletes) over its whole history. Two
// corpora with equal logical state have equal LSNs — the offset space
// WAL-shipping replication runs on (see internal/replica).
func (c *Corpus) LSN() uint64 { return c.c.LSN() }

// ShipFrom reads committed replication payloads starting at LSN from
// (up to maxRecords records / maxBytes payload bytes; empty means
// caught up). ErrShipBehind / ErrShipAhead mean the offset cannot be
// served incrementally and the follower needs SnapshotBytes.
func (c *Corpus) ShipFrom(from uint64, maxRecords, maxBytes int) ([][]byte, error) {
	return c.c.ShipFrom(from, maxRecords, maxBytes)
}

// ShipNotify returns a channel closed when the next mutation commits,
// so a shipper that drained ShipFrom can block instead of polling.
func (c *Corpus) ShipNotify() <-chan struct{} { return c.c.ShipNotify() }

// SnapshotBytes encodes the corpus's current state in its snapshot
// format and returns it with the state's LSN. A follower installs the
// bytes as its own directory's state and opens it as a restart would,
// after which it tails incrementally with ShipFrom from that LSN.
func (c *Corpus) SnapshotBytes() ([]byte, uint64) { return c.c.SnapshotBytes() }

// Stats snapshots the corpus counters.
func (c *Corpus) Stats() CorpusStats { return c.c.Stats() }

// Close flushes the WAL and releases the log file.
func (c *Corpus) Close() error { return c.c.Close() }
