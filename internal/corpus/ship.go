package corpus

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"

	"repro/internal/iofault"
	"repro/internal/token"
)

// Replication ship log.
//
// The corpus is its own replication feed: every committed mutation —
// acknowledged to the caller after its WAL append — is also retained,
// in its WAL payload encoding, in a bounded in-memory ring so a
// primary-side shipper can stream it to followers. Offsets are logical
// sequence numbers (LSNs): the LSN of a corpus is the total number of
// mutations ever applied to it, adds plus deletes. Because string ids
// are dense and never reused and deletes only ever tombstone a live
// string, the LSN is derivable from logical state alone —
//
//	LSN = len(strings) + tombstones
//
// — which makes it stable across snapshots, compaction and restarts
// without any change to the on-disk formats: two corpora with equal
// logical state agree on their LSN by construction.
//
// The ring holds the tail of the committed record stream. A follower
// whose offset fell off the head (or a fresh follower with an empty
// directory) is seeded instead with the corpus's snapshot, the one
// full-state encoding: SnapshotBytes encodes the current state with its
// LSN, and the follower writes it into its directory with Install and
// reopens it, through the same load path a restart takes. From that LSN
// it tails the ring like any other follower.
//
// Records replayed from the WAL at Open are not buffered: the ring
// starts at the corpus's post-recovery LSN, so a follower that is
// behind a freshly restarted primary is seeded with a snapshot. That is
// the honest choice — buffering a replay of unbounded size would
// either blow memory or silently cover only part of the gap.

// defaultShipBuffer is the ship-log depth when Options.ShipBufferRecords
// is zero: deep enough to ride out brief follower stalls and transient
// network faults without forcing a snapshot install.
const defaultShipBuffer = 1024

// maxShipBytes bounds the ring's payload memory regardless of record
// count; oversized tails evict from the head like overlong ones.
const maxShipBytes = 8 << 20

// ErrShipBehind reports a ShipFrom offset older than the ship log's
// head: the records were evicted (or folded into a snapshot before this
// process started), so the follower must install a snapshot.
var ErrShipBehind = errors.New("corpus: ship offset predates the ship log; follower needs a snapshot")

// ErrShipAhead reports a ShipFrom offset beyond the committed LSN: the
// follower claims records this corpus never produced (a diverged
// follower, e.g. an old primary), and must install a snapshot of this
// corpus's history.
var ErrShipAhead = errors.New("corpus: ship offset is beyond the committed log; follower has diverged")

// shipLog is the bounded ring of committed payloads. Guarded by the
// corpus's state lock (a record is appended as it is installed, under the
// write lock; readers take the read lock), so it exposes only installed
// records and its readers never wait on an fsync.
type shipLog struct {
	head       uint64 // LSN of entries[0]
	entries    [][]byte
	bytes      int
	maxRecords int
	// notify is closed and replaced whenever a record is appended, so
	// shippers can block on commit instead of polling.
	notify chan struct{}
}

func newShipLog(maxRecords int) *shipLog {
	if maxRecords <= 0 {
		maxRecords = defaultShipBuffer
	}
	return &shipLog{maxRecords: maxRecords, notify: make(chan struct{})}
}

// lsnOf is the logical sequence number of a state with n ids, live of
// them alive: one add per id plus one delete per tombstone.
func lsnOf(n, live int) uint64 { return uint64(2*n - live) }

// lsnLocked computes the logical sequence number; caller holds either
// lock.
func (c *Corpus) lsnLocked() uint64 { return lsnOf(len(c.alive), c.live) }

// LSN returns the corpus's logical sequence number: the total count of
// committed mutations (adds plus deletes) over its whole history.
func (c *Corpus) LSN() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lsnLocked()
}

// shipAppend retains one committed payload in the ship ring (copying it
// — callers reuse their encode buffers) and wakes blocked shippers.
// Caller holds the state write lock and has already applied the
// mutation, so the ring's tail LSN is the current lsnLocked(). No-op
// before Open completes (WAL replay must not be buffered).
func (c *Corpus) shipAppend(payload []byte) {
	s := c.ship
	if s == nil {
		return
	}
	s.entries = append(s.entries, append([]byte(nil), payload...))
	s.bytes += len(payload)
	for len(s.entries) > s.maxRecords || s.bytes > maxShipBytes {
		s.bytes -= len(s.entries[0])
		s.entries[0] = nil
		s.entries = s.entries[1:]
		s.head++
	}
	close(s.notify)
	s.notify = make(chan struct{})
}

// ShipNotify returns a channel that is closed when the next mutation
// commits. Shippers that drained ShipFrom grab the channel, re-check
// the LSN, and block on it instead of polling.
func (c *Corpus) ShipNotify() <-chan struct{} {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ship.notify
}

// ShipFrom reads committed payloads starting at LSN from, up to
// maxRecords records and (approximately) maxBytes payload bytes; at
// least one record is returned when any is available regardless of the
// byte budget. An empty result with a nil error means the follower is
// caught up. ErrShipBehind / ErrShipAhead mean the offset cannot be
// served incrementally and the follower needs a snapshot. The returned
// slices are shared with the ring and must not be modified.
func (c *Corpus) ShipFrom(from uint64, maxRecords, maxBytes int) ([][]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.ship
	lsn := c.lsnLocked()
	if from > lsn {
		return nil, ErrShipAhead
	}
	if from == lsn {
		return nil, nil
	}
	if from < s.head {
		return nil, ErrShipBehind
	}
	if maxRecords <= 0 {
		maxRecords = defaultShipBuffer
	}
	out := make([][]byte, 0, maxRecords)
	bytes := 0
	for i := int(from - s.head); i < len(s.entries) && len(out) < maxRecords; i++ {
		if len(out) > 0 && maxBytes > 0 && bytes+len(s.entries[i]) > maxBytes {
			break
		}
		out = append(out, s.entries[i])
		bytes += len(s.entries[i])
	}
	return out, nil
}

// ApplyShipped commits shipped payloads (see ShipFrom) as one commit,
// appending each verbatim, up to the first that does not decode or
// apply: it returns the committed records in order and that payload's
// error. While a matcher is attached it fails with ErrAttached.
func (c *Corpus) ApplyShipped(payloads [][]byte) ([]Record, error) {
	recs, bad := DecodeShipped(payloads)
	_, n, err := c.write(recs, nil, nil)
	return recs[:n], cmp.Or(err, bad)
}

// DecodeShipped decodes shipped payloads into records, up to the first
// that does not decode, whose error it returns.
func DecodeShipped(payloads [][]byte) ([]Record, error) {
	recs := make([]Record, 0, len(payloads))
	for i, p := range payloads {
		wr, err := decodeRecord(p)
		if err != nil {
			return recs, fmt.Errorf("corpus: shipped record %d: %w", i, err)
		}
		r := Record{Delete: wr.op == opDelete, SID: wr.sid, payload: p}
		if !r.Delete {
			r.TS = token.New(wr.tokens)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// SnapshotBytes encodes the current state in the snapshot format and
// returns it with the state's LSN: what a follower installs (Install)
// before it tails the ring from that LSN. It encodes a captured View, so
// commits proceed while it runs.
func (c *Corpus) SnapshotBytes() ([]byte, uint64) {
	v := c.View()
	var buf bytes.Buffer
	_ = encodeSnapshot(&buf, 0, v) // a bytes.Buffer does not fail a write
	return buf.Bytes(), lsnOf(len(v.Alive), v.Live)
}

// CheckedSnapshot is a snapshot body that CheckSnapshot accepted, the
// only input Install takes: a body is decoded once, before any lock of
// the installer is taken.
type CheckedSnapshot struct {
	raw []byte
	lsn uint64
}

// LSN returns the logical sequence number of the state the snapshot
// holds.
func (s *CheckedSnapshot) LSN() uint64 { return s.lsn }

// CheckSnapshot decodes raw as a snapshot, with every check Open makes,
// and returns it checked for Install. It touches nothing.
func CheckSnapshot(raw []byte) (*CheckedSnapshot, error) {
	st, err := decodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	return &CheckedSnapshot{raw: raw, lsn: lsnOf(len(st.alive), st.live)}, nil
}

// Install makes the checked snapshot snap the whole state of the corpus
// directory dir, which must not be open, and returns the installed LSN.
// It writes the snapshot through opt.FS as a generation above every one
// in dir (temp file, fsync, rename, directory fsync) and removes the
// older generations. The rename is the one commit point: after a crash
// anywhere, dir reopens either as it was — empty, for a fresh follower —
// or as exactly the installed state, never as a mix of the two.
func Install(dir string, snap *CheckedSnapshot, opt Options) (uint64, error) {
	if snap == nil || snap.raw == nil {
		return 0, errors.New("corpus: install of an unchecked snapshot")
	}
	raw := snap.raw
	c := &Corpus{dir: dir, opt: opt, fs: opt.FS}
	if c.fs == nil {
		c.fs = iofault.OS
	}
	fs := c.fs
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return 0, err
	}
	defer unlockDir(lock)
	removeStaleTemp(fs, dir)
	snaps, err := listGens(fs, dir, snapPrefix, snapSuffix)
	if err != nil {
		return 0, err
	}
	wals, err := listGens(fs, dir, walPrefix, walSuffix)
	if err != nil {
		return 0, err
	}
	var gen uint64
	for _, g := range append(snaps, wals...) {
		gen = max(gen, g+1)
	}
	// The header is restamped with gen, so the CRC is recomputed.
	tmp, err := c.writeTemp(func(w io.Writer) error {
		return writeSnapshot(w, gen, func(cw *crcWriter) { cw.write(raw[snapHeaderLen : len(raw)-4]) })
	})
	if err != nil {
		return 0, err
	}
	if err := fs.Rename(tmp, snapPath(dir, gen)); err != nil {
		fs.Remove(tmp)
		return 0, err
	}
	if err := c.syncDir(); err != nil {
		return 0, err
	}
	for _, g := range snaps {
		if err := fs.Remove(snapPath(dir, g)); err != nil {
			return 0, err
		}
	}
	for _, g := range wals {
		if err := fs.Remove(walPath(dir, g)); err != nil {
			return 0, err
		}
	}
	return snap.lsn, c.syncDir()
}
