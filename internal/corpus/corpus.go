// Package corpus implements the durable, mutable corpus behind the
// persistent join and serving paths: it holds the tokenized strings in
// one token.Corpus, whose frequencies it keeps live (a delete uncounts
// its string), beside the alive mask, and it persists all logical state
// through a versioned binary snapshot plus a CRC-framed, fsync-batched
// write-ahead log, so a process restart recovers the exact corpus (and
// any index derived from it) without re-ingesting anything.
//
// The corpus keeps no prefix order of its own. A join over it derives the
// rarest-first order from the live frequencies, exactly as a join over an
// in-memory corpus does (prefilter.NewIndex), and an attached matcher
// prices each string against the same frequencies: it shares the
// corpus's token space and owns its write path (Attach), so a node holds
// one token space, and the corpus refuses direct writes meanwhile.
// Readers take only the state lock and never wait on a commit's fsync
// (see Corpus).
package corpus

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/iofault"
	"repro/internal/token"
)

// Options configures a persistent corpus.
type Options struct {
	// Tokenizer maps raw strings to token multisets for Add. The WAL
	// stores tokenized forms, so replay never consults it; it only has to
	// stay fixed for as long as the caller wants new and old strings
	// tokenized the same way. Defaults to whitespace+punctuation.
	Tokenizer token.Tokenizer
	// SyncEvery is the one fsync rule, checked at the end of every commit
	// (an Add, a batch, a Delete or a shipped batch): fsync once SyncEvery
	// or more records are pending (and always on Sync, Snapshot, Close).
	// 1 (the default) makes every commit durable when it returns, at one
	// fsync per batch. Larger values trade the log's tail for throughput,
	// and a batch then follows the rule like an Add: no fsync of its own.
	SyncEvery int
	// DisableSync skips fsync entirely (tests and benchmarks on throwaway
	// data; a crash may lose anything after the last OS writeback).
	DisableSync bool
	// FS is the filesystem seam every durability path runs over; nil
	// means the real OS filesystem. Fault-injection tests install an
	// iofault.Injector here to fail a chosen write, fsync, rename or
	// dir-fsync and exercise the recovery paths.
	FS iofault.FS
	// ShipBufferRecords bounds the in-memory replication ship log (see
	// LSN, ShipFrom): the ring retains up to this many recent committed
	// records for streaming to followers; a follower that falls off the
	// ring installs a snapshot instead. 0 means the default (1024).
	ShipBufferRecords int
}

// Corpus is the durable corpus. All methods are safe for concurrent use,
// and View captures a consistent point-in-time read view that later
// mutations never disturb. The log lock serializes the write path: a
// commit holds it across its WAL append, its fsync, an attached matcher's
// matching and the installs, and Sync, Snapshot, Compact, Recover and
// Close take it too. The state lock mu guards what readers see and is
// write-held only while records are installed (and indexed, by an
// attached matcher), so readers never wait on an fsync or a match. Every
// field it guards is written under both locks, so either lock reads it.
type Corpus struct {
	log sync.Mutex
	mu  sync.RWMutex
	dir string
	opt Options
	fs  iofault.FS

	// ---- logical state --------------------------------------------------
	// tc holds every string ever added, tombstones included; its Freq
	// counts the alive ones only (applyDelete forgets the dead).
	tc    *token.Corpus
	alive []bool
	live  int
	// attached, guarded by the log lock, is the matcher that shares the
	// state and owns the write path (Attach).
	attached *Attached

	// ---- persistence ----------------------------------------------------
	gen         uint64
	wal         *walWriter
	walReplayed int64
	snapshots   int64
	closed      bool
	// degraded, when non-nil, is the storage failure that sealed the
	// write path: a failed WAL fsync or rollback (the generation can no
	// longer be trusted to persist what it acknowledges) or a failed
	// directory fsync after a rotation. Reads keep working from memory;
	// mutations fail fast with ErrDegraded until Recover (or Snapshot)
	// rotates to a fresh generation end-to-end.
	degraded error
	// dirty is set by every applied mutation (including replayed ones)
	// and cleared by a snapshot: when false, the newest snapshot already
	// holds the exact state, so periodic checkpoints can skip.
	dirty bool
	// corruptSnaps are snapshot generations that failed their CRC at
	// Open; Compact removes them and never retains one as the fallback.
	corruptSnaps map[uint64]bool
	// lock is the advisory flock on the data directory, held from Open to
	// Close so a second process fails loudly instead of corrupting the
	// WAL (nil on platforms without flock).
	lock *os.File
	// ship is the replication ship log (see ship.go); nil only while Open
	// replays the WAL, so recovered records are never re-buffered.
	ship *shipLog

	joinsServed atomic.Int64
}

// Stats is a snapshot of the corpus's state and persistence counters.
type Stats struct {
	// Strings is the total id space (including tombstones); Live counts
	// non-deleted strings; Tokens the distinct token space.
	Strings, Live, Tombstones, Tokens int
	// Generation is the current snapshot/WAL generation. WALReplayed
	// counts records recovered at Open; WALRecords/WALBytes count appends
	// by this process; Snapshots counts snapshots written by this
	// process.
	Generation  uint64
	WALReplayed int64
	WALRecords  int64
	WALBytes    int64
	Snapshots   int64
	// Dirty reports whether any mutation (including replayed WAL records)
	// has been applied since the newest snapshot — false means a
	// checkpoint would write an identical snapshot and can be skipped.
	Dirty bool
	// Degraded reports whether the write path is sealed after a storage
	// failure (see Corpus.Degraded).
	Degraded bool
	// JoinsServed counts the corpus joins answered over this corpus,
	// SelfJoinCorpus and JoinCorpus alike.
	JoinsServed int64
}

// Open loads (or initializes) the corpus persisted in dir: the newest
// valid snapshot is loaded, its WAL generation replayed — a torn or
// corrupt WAL tail is detected by CRC and cleanly ignored — and the log
// reopened for appends.
func Open(dir string, opt Options) (*Corpus, error) {
	if opt.Tokenizer == nil {
		opt.Tokenizer = token.WhitespaceAndPunct
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 1
	}
	fs := opt.FS
	if fs == nil {
		fs = iofault.OS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			unlockDir(lock)
		}
	}()
	c := &Corpus{
		dir:          dir,
		opt:          opt,
		fs:           fs,
		tc:           &token.Corpus{},
		corruptSnaps: make(map[uint64]bool),
		lock:         lock,
	}
	removeStaleTemp(fs, dir)

	// Newest valid snapshot wins; a corrupt one falls back a generation
	// (Compact retains one prior generation precisely for this). If
	// snapshots exist but none decodes, fail loudly — opening an empty
	// corpus over a directory that demonstrably held data would present
	// total data loss as a clean start.
	snaps, err := listGens(fs, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	loaded := false
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := readSnapshot(fs, snapPath(dir, snaps[i]))
		if err != nil {
			c.corruptSnaps[snaps[i]] = true
			continue
		}
		c.applySnapshot(st)
		loaded = true
		break
	}

	// Replay every WAL generation from the loaded snapshot's onward, in
	// order — after a fallback (snapshot g corrupt, g-1 loaded) the
	// records acknowledged under generation g live in wal-g and must not
	// be dropped; with no loadable snapshot at all, an intact chain from
	// wal-0 still reconstructs everything. Generations must be
	// consecutive, and only the final one may end in a torn/corrupt tail:
	// damage in an earlier generation would silently shift every later
	// record's id. When snapshots exist but none decodes and the chain
	// cannot start at zero, fail loudly — opening an empty corpus over a
	// directory that demonstrably held data would present total data loss
	// as a clean start.
	walGens, err := listGens(fs, dir, walPrefix, walSuffix)
	if err != nil {
		return nil, err
	}
	if !loaded && len(snaps) > 0 && len(walGens) == 0 {
		return nil, fmt.Errorf("corpus: none of the %d snapshots in %s is loadable and no wal remains; refusing to open empty", len(snaps), dir)
	}
	apply := func(rec walRecord) error {
		switch rec.op {
		case opAdd:
			c.applyAdd(token.New(rec.tokens))
		case opDelete:
			return c.applyDelete(rec.sid)
		}
		return nil
	}
	var offset int64
	expected := c.gen
	for gi, g := range walGens {
		if g < c.gen {
			continue // folded into the loaded snapshot
		}
		if g != expected {
			return nil, fmt.Errorf("corpus: wal generation %d missing (found %d)", expected, g)
		}
		off, records, clean, err := replayWAL(fs, walPath(dir, g), apply)
		if err != nil {
			return nil, err
		}
		if !clean && gi != len(walGens)-1 {
			return nil, fmt.Errorf("corpus: wal generation %d is damaged mid-chain; later generations cannot be replayed safely", g)
		}
		c.walReplayed += records
		offset = off
		c.gen = g
		expected = g + 1
	}

	c.wal, err = newWALWriter(fs, walPath(dir, c.gen), offset, opt.SyncEvery, opt.DisableSync)
	if err != nil {
		return nil, err
	}
	if err := c.syncDir(); err != nil {
		c.wal.close()
		return nil, err
	}
	// The ship log starts at the post-recovery LSN: replayed records are
	// not buffered (a follower behind a restarted primary installs a
	// snapshot).
	c.ship = newShipLog(opt.ShipBufferRecords)
	c.ship.head = c.lsnLocked()
	opened = true
	return c, nil
}

// removeStaleTemp clears half-written snapshot temp files from a crashed
// Snapshot call.
func removeStaleTemp(fs iofault.FS, dir string) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if len(name) > 4 && name[:5] == "snap-" && name[len(name)-4:] == ".tmp" {
			fs.Remove(dir + string(os.PathSeparator) + name)
		}
	}
}

// applySnapshot installs a decoded snapshot as the corpus state: its
// token table seeds the token corpus, so every token keeps its id, and
// the strings are added back in id order (a tombstone as an empty string
// that counts nothing).
func (c *Corpus) applySnapshot(st *snapState) {
	c.gen = st.gen
	c.tc = st.tc
	c.tc.Grow(len(st.strs))
	c.alive, c.live = st.alive, st.live
	var toks []string
	for sid, ids := range st.strs {
		if !st.alive[sid] {
			c.tc.Add(token.TokenizedString{})
			continue
		}
		toks = toks[:0]
		for _, tid := range ids {
			toks = append(toks, c.tc.Tokens[tid])
		}
		c.tc.Add(token.New(toks))
	}
}

// applyAdd installs one tokenized string (already WAL-durable or being
// replayed) and returns its id.
func (c *Corpus) applyAdd(ts token.TokenizedString) token.StringID {
	c.alive = append(c.alive, true)
	c.live++
	c.dirty = true
	return c.tc.Add(ts)
}

// ErrNotFound marks a delete of an id that does not exist or is already
// tombstoned — a caller error, as opposed to a persistence failure.
var ErrNotFound = errors.New("unknown or already-deleted id")

// ErrDegraded marks the corpus's degraded mode: a storage failure sealed
// the write path, so mutations fail fast while reads keep serving from
// memory. Recover (or Snapshot) heals by rotating to a fresh generation;
// errors.Is(err, ErrDegraded) identifies the condition.
var ErrDegraded = errors.New("corpus degraded: write path sealed")

// degradedErr renders the current degraded state as an ErrDegraded-
// wrapped error. Caller holds either lock; c.degraded != nil.
func (c *Corpus) degradedErr() error {
	return fmt.Errorf("%w: %v", ErrDegraded, c.degraded)
}

// setDegraded seals (err != nil) or heals (nil) the write path. Caller
// holds the log lock.
func (c *Corpus) setDegraded(err error) {
	c.mu.Lock()
	c.degraded = err
	c.mu.Unlock()
}

// noteWAL post-processes a failed WAL operation: if it left the writer
// sealed (fsync failed, or a rollback could not restore the validated
// prefix), the corpus enters degraded mode and the error is tagged with
// ErrDegraded. A clean per-op failure — the append failed but rollback
// restored the log — passes through untagged; the corpus stays healthy.
func (c *Corpus) noteWAL(err error) error {
	if err == nil {
		return nil
	}
	if c.wal.broken != nil {
		c.setDegraded(c.wal.broken)
		return fmt.Errorf("%w: %v", ErrDegraded, err)
	}
	return err
}

// applyDelete tombstones a string. Its content and member list are
// retained (point-in-time views may still hold them; readers filter by
// alive) — a restart from a snapshot sheds them.
func (c *Corpus) applyDelete(sid token.StringID) error {
	if int(sid) >= len(c.alive) || sid < 0 {
		return fmt.Errorf("corpus: delete of id %d: %w", sid, ErrNotFound)
	}
	if !c.alive[sid] {
		return fmt.Errorf("corpus: delete of id %d: %w", sid, ErrNotFound)
	}
	c.alive[sid] = false
	c.live--
	c.tc.Forget(sid)
	c.dirty = true
	return nil
}

// Add tokenizes s and commits it (see AddTokenizedBatch), returning its
// id.
func (c *Corpus) Add(s string) (token.StringID, error) {
	return c.AddTokenizedBatch([]token.TokenizedString{c.opt.Tokenizer(s)})
}

// AddTokenizedBatch commits a batch of tokenized strings as one commit
// and installs them, returning the first id (the batch occupies the
// dense range [first, first+len(tss))). On a WAL failure nothing is
// installed. While a matcher is attached it fails with ErrAttached.
func (c *Corpus) AddTokenizedBatch(tss []token.TokenizedString) (token.StringID, error) {
	recs := make([]Record, len(tss))
	for i, ts := range tss {
		recs[i] = Record{TS: ts}
	}
	first, _, err := c.write(recs, nil, nil)
	if err != nil {
		return -1, err
	}
	return first, nil
}

// Delete tombstones a string: it stops participating in joins, queries
// and future snapshots. Deleting an unknown or already-deleted id is an
// error (and is never logged). While a matcher is attached it fails with
// ErrAttached.
func (c *Corpus) Delete(sid token.StringID) error {
	_, _, err := c.write([]Record{{Delete: true, SID: sid}}, nil, nil)
	return err
}

// Record is one logical mutation: an add carrying its tokenized string,
// or a delete carrying the id it tombstones.
type Record struct {
	Delete bool
	TS     token.TokenizedString // add records
	SID    token.StringID        // delete records
	// payload is the record's WAL encoding, appended verbatim; commit
	// encodes it when it is nil.
	payload []byte
}

// write commits recs (see commit) under the log lock and returns the id
// the first add takes, the committed prefix length and the error.
func (c *Corpus) write(recs []Record, a *Attached, apply Apply) (token.StringID, int, error) {
	c.log.Lock()
	defer c.log.Unlock()
	first := token.StringID(len(c.alive))
	n, err := c.commit(recs, a, apply)
	return first, n, err
}

// commit is the one path by which a mutation becomes durable. It
// appends recs to the WAL up to the first invalid one — a delete of an
// id that is unknown or dead once the records before it apply — then
// fsyncs by the one rule (when SyncEvery or more appends are pending,
// checked once, at the end), and only then installs and ships that
// prefix (install). It returns the prefix length and the invalid
// record's error; a WAL failure rolls the whole batch back. a and apply
// are the attached matcher's, or nil for a direct write, which an
// attached corpus refuses. Caller holds the log lock.
func (c *Corpus) commit(recs []Record, a *Attached, apply Apply) (int, error) {
	if c.closed {
		return 0, errors.New("corpus: closed")
	}
	if c.degraded != nil {
		return 0, c.degradedErr()
	}
	if c.attached != a {
		return 0, ErrAttached
	}
	if a != nil && a.lags {
		return 0, errors.New("corpus: the attached matcher's index lags its token space; reopen the corpus")
	}
	var invalid error
	m, next := c.wal.mark(), len(c.alive) // next: the id the next add receives
	for i, r := range recs {
		if !r.Delete {
			next++
		} else if sid := r.SID; sid < 0 || int(sid) >= next || int(sid) < len(c.alive) && !c.alive[sid] ||
			slices.ContainsFunc(recs[:i], func(p Record) bool { return p.Delete && p.SID == sid }) {
			recs, invalid = recs[:i], fmt.Errorf("corpus: delete of id %d: %w", sid, ErrNotFound)
			break
		}
		if r.payload == nil && r.Delete {
			recs[i].payload = encodeDelete(nil, r.SID)
		} else if r.payload == nil {
			recs[i].payload = encodeAdd(nil, r.TS)
		}
		if err := c.wal.appendDeferred(recs[i].payload); err != nil {
			// None of the batch was applied, so a replay must not see any
			// of it (it would shift every later id).
			c.wal.rollback(m)
			return 0, c.noteWAL(err)
		}
	}
	if err := c.wal.syncDue(); err != nil {
		c.wal.rollback(m)
		return 0, c.noteWAL(err)
	}
	c.install(recs, a, apply)
	return len(recs), invalid
}

// Apply is an attached matcher's part of a commit, called once the
// records recs are durable. It installs them in order through install,
// which installs the next n records under one hold of the state write
// lock and runs then under the same hold. If apply panics, the corpus
// installs the rest itself, so the state holds every logged record, and
// the attachment refuses further writes: its matcher's index lags.
// apply runs under the log lock, and each then under the state write
// lock too, so neither may call the corpus.
type Apply func(recs []Record, install func(n int, then func()))

// install installs and ships recs, through apply when a matcher is
// attached. Caller holds the log lock.
func (c *Corpus) install(recs []Record, a *Attached, apply Apply) {
	next := 0
	install := func(n int, then func()) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, r := range recs[next : next+n] {
			if r.Delete {
				_ = c.applyDelete(r.SID) // cannot fail: commit checked the id
			} else {
				c.applyAdd(r.TS)
			}
			c.shipAppend(r.payload)
		}
		next += n
		if then != nil {
			then()
		}
	}
	if a == nil {
		install(len(recs), nil)
		return
	}
	done := false
	defer func() {
		if !done {
			a.lags = true
			install(len(recs)-next, nil)
		}
	}()
	apply(recs, install)
	done = next == len(recs)
}

// ErrAttached marks a direct write (Add, AddTokenizedBatch, Delete,
// ApplyShipped) to a corpus that a matcher is attached to: the matcher
// owns the write path, so the write fails and changes nothing.
var ErrAttached = errors.New("corpus: a matcher is attached; write through it")

// Attached is the one matcher attached to a corpus (Attach). It reads
// the corpus's token space TC under its state lock Mu and writes only
// through Commit, so every record is installed once, into one token
// space. lags (guarded by the log lock) is set when an Apply panicked.
type Attached struct {
	c    *Corpus
	Mu   *sync.RWMutex
	TC   *token.Corpus
	lags bool
}

// Attach attaches a matcher to the corpus, which refuses direct writes
// with ErrAttached until Detach. A corpus takes one matcher at a time.
func (c *Corpus) Attach() (*Attached, error) {
	c.log.Lock()
	defer c.log.Unlock()
	if c.closed {
		return nil, errors.New("corpus: closed")
	}
	if c.attached != nil {
		return nil, ErrAttached
	}
	c.attached = &Attached{c: c, Mu: &c.mu, TC: c.tc}
	return c.attached, nil
}

// Detach hands the write path back to the corpus.
func (a *Attached) Detach() {
	a.c.log.Lock()
	defer a.c.log.Unlock()
	if a.c.attached == a {
		a.c.attached = nil
	}
}

// Alive reports whether string sid is live. The caller holds Mu.
func (a *Attached) Alive(sid token.StringID) bool { return a.c.alive[sid] }

// Commit commits recs as one commit whose records apply installs. It
// returns the id the first add takes, the length of the committed prefix
// (see commit) and the error of the record after it.
func (a *Attached) Commit(recs []Record, apply Apply) (token.StringID, int, error) {
	return a.c.write(recs, a, apply)
}

// Sync forces any batched WAL appends to stable storage.
func (c *Corpus) Sync() error {
	c.log.Lock()
	defer c.log.Unlock()
	if c.closed {
		return errors.New("corpus: closed")
	}
	if c.degraded != nil {
		return c.degradedErr()
	}
	return c.noteWAL(c.wal.sync())
}

// Degraded reports the degraded state: nil while healthy, otherwise an
// ErrDegraded-wrapped error naming the storage failure that sealed the
// write path. Read paths (View, Stats, Len, ...) are unaffected by
// degradation — they serve from memory.
func (c *Corpus) Degraded() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.degraded == nil {
		return nil
	}
	return c.degradedErr()
}

// Recover attempts to heal a degraded corpus by rotating to a fresh
// generation: the in-memory state — exactly the acknowledged mutations —
// is written as a new snapshot through new file descriptors, a fresh WAL
// is started, and only when the whole rotation (including the directory
// fsync) succeeds is the degraded flag cleared. Retrying the failed
// fsync on the old descriptors would be unsound (the kernel may have
// dropped the dirty pages and would report a hollow success), which is
// why healing always goes through a full rotation. On a healthy corpus
// Recover is a no-op.
func (c *Corpus) Recover() error {
	c.log.Lock()
	defer c.log.Unlock()
	if c.closed {
		return errors.New("corpus: closed")
	}
	if c.degraded == nil {
		return nil
	}
	return c.snapshotLocked()
}

// Snapshot persists the current state as a new generation: the snapshot
// file is written atomically, a fresh WAL is started, and subsequent
// appends go to the new generation. Older generations remain on disk
// until Compact.
func (c *Corpus) Snapshot() error {
	c.log.Lock()
	defer c.log.Unlock()
	return c.snapshotLocked()
}

func (c *Corpus) snapshotLocked() error {
	if c.closed {
		return errors.New("corpus: closed")
	}
	// Flush batched appends so the snapshot captures them — unless the
	// writer is already sealed: the in-memory state holds exactly the
	// acknowledged mutations, and the rotation below persists it through
	// fresh descriptors, which is the only sound way to heal.
	if c.degraded == nil {
		if err := c.wal.sync(); err != nil {
			return c.noteWAL(err)
		}
	}
	gen := c.gen + 1
	tmp, err := c.writeSnapshotTemp(gen)
	if err != nil {
		return err
	}
	// The new generation's WAL is created BEFORE the snapshot is renamed
	// into place. The reverse order has an unrecoverable interleaving: a
	// visible snap-g whose wal-g could not be created (and whose removal
	// also failed) shadows every later append to wal-(g-1) — the next
	// Open loads snap-g and skips the older log, silently dropping
	// acknowledged records. With this order the failure artifacts are an
	// invisible temp file or an empty wal-g, and an orphan empty wal-g
	// replays as a no-op on top of a clean predecessor chain.
	w, err := newWALWriter(c.fs, walPath(c.dir, gen), 0, c.opt.SyncEvery, c.opt.DisableSync)
	if err != nil {
		c.fs.Remove(tmp)
		return err
	}
	if err := c.fs.Rename(tmp, snapPath(c.dir, gen)); err != nil {
		w.close()
		c.fs.Remove(tmp)
		c.fs.Remove(walPath(c.dir, gen)) // best-effort; harmless if it stays
		return err
	}
	old := c.wal
	c.mu.Lock()
	c.wal, c.gen, c.dirty = w, gen, false
	c.snapshots++
	c.mu.Unlock()
	old.close()
	if err := c.syncDir(); err != nil {
		// The rename may not be durable: a crash now could resurface the
		// previous generation. The in-memory swap already happened, so
		// appends target the new WAL — seal the corpus until a later
		// rotation (Recover) fsyncs the directory successfully.
		c.setDegraded(fmt.Errorf("corpus: snapshot dir fsync failed: %w", err))
		return c.degradedErr()
	}
	c.setDegraded(nil)
	return nil
}

// Compact snapshots and then removes older generations, retaining the
// newest prior *valid* generation as a corruption fallback: if the
// fresh snapshot ever fails its CRC, Open falls back to the retained
// one and replays the WAL chain from it, losing nothing. Snapshots that
// already failed their CRC at Open are never retained (keeping a
// known-corrupt file as the "fallback" would void the guarantee) and
// are removed here. Disk usage is bounded to two snapshots plus their
// logs (transiently more while a corrupt span is being healed).
func (c *Corpus) Compact() error {
	c.log.Lock()
	defer c.log.Unlock()
	if err := c.snapshotLocked(); err != nil {
		return err
	}
	// The fallback generation: newest prior snapshot not known corrupt.
	// With no valid prior snapshot the fallback is generation 0 — the
	// WAL-only full chain — so every log is retained until a valid prior
	// snapshot exists (the next Compact prunes them).
	snaps, err := listGens(c.fs, c.dir, snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	var keep uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		if g := snaps[i]; g < c.gen && !c.corruptSnaps[g] {
			keep = g
			break
		}
	}
	for _, g := range snaps {
		if g < keep || (g < c.gen && c.corruptSnaps[g]) {
			if err := c.fs.Remove(snapPath(c.dir, g)); err != nil {
				return err
			}
			delete(c.corruptSnaps, g)
		}
	}
	walGens, err := listGens(c.fs, c.dir, walPrefix, walSuffix)
	if err != nil {
		return err
	}
	for _, g := range walGens {
		if g < keep {
			if err := c.fs.Remove(walPath(c.dir, g)); err != nil {
				return err
			}
		}
	}
	return c.syncDir()
}

// Close flushes the WAL and releases the log file. The corpus must not
// be used afterwards.
func (c *Corpus) Close() error {
	c.log.Lock()
	defer c.log.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.wal.close()
	unlockDir(c.lock)
	c.lock = nil
	return err
}

// ReleaseLockForTest force-releases the advisory directory lock without
// flushing or closing anything, simulating the owning process dying (a
// real crash releases flock with the process, but an in-process
// crash-recovery test abandons the handle, which would otherwise keep
// the directory locked). For crash-recovery tests only — after calling
// it, the corpus must not be written again.
func (c *Corpus) ReleaseLockForTest() {
	c.log.Lock()
	defer c.log.Unlock()
	unlockDir(c.lock)
	c.lock = nil
}

// Len returns the total id space (including tombstones).
func (c *Corpus) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.alive)
}

// Live returns the number of non-deleted strings.
func (c *Corpus) Live() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.live
}

// Tokenizer returns the tokenizer Add uses.
func (c *Corpus) Tokenizer() token.Tokenizer { return c.opt.Tokenizer }

// NoteJoin records one corpus join (called by the batch joiner).
func (c *Corpus) NoteJoin() { c.joinsServed.Add(1) }

// Stats snapshots the corpus counters.
func (c *Corpus) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{
		Strings:     len(c.alive),
		Live:        c.live,
		Tombstones:  len(c.alive) - c.live,
		Tokens:      c.tc.NumTokens(),
		Generation:  c.gen,
		WALReplayed: c.walReplayed,
		Snapshots:   c.snapshots,
		Dirty:       c.dirty,
		Degraded:    c.degraded != nil,
		JoinsServed: c.joinsServed.Load(),
	}
	if c.wal != nil {
		st.WALRecords = c.wal.records.Load()
		st.WALBytes = c.wal.bytes.Load()
	}
	return st
}

// View is a consistent point-in-time read view of the corpus: the token
// space as a token.Corpus (whose Freq holds the live document
// frequencies) and the alive mask. Later Adds and Deletes never disturb a
// captured view (the frequencies and the mask are copied; everything else
// is append-only), so long-running joins read it lock-free.
type View struct {
	TC    *token.Corpus
	Alive []bool
	Live  int
}

// View captures a read view. Probes, when given, are added to the view
// under the same read lock as live strings [Len, Len+len(probes)): the
// view looks their tokens up in the corpus's intern map and interns only
// the new ones, so a probe join builds no map over the token space.
func (c *Corpus) View(probes ...token.TokenizedString) *View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := &View{TC: c.tc.View(), Alive: slices.Clone(c.alive), Live: c.live + len(probes)}
	for _, p := range probes {
		v.TC.Add(p)
		v.Alive = append(v.Alive, true)
	}
	return v
}
