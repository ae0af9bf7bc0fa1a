package corpus

import (
	"errors"
	"fmt"

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
// directory) is served a bootstrap instead: BootstrapPayloads
// synthesizes a payload stream that replays — through the very same
// ApplyShipped commit as streamed records — to the identical logical
// state AND the identical LSN (each tombstoned id contributes one add
// and one delete, exactly as it did historically on the primary).
//
// Records replayed from the WAL at Open are not buffered: the ring
// starts at the corpus's post-recovery LSN, so a follower that is
// behind a freshly restarted primary resyncs via bootstrap. That is
// the honest choice — buffering a replay of unbounded size would
// either blow memory or silently cover only part of the gap.

// defaultShipBuffer is the ship-log depth when Options.ShipBufferRecords
// is zero: deep enough to ride out brief follower stalls and transient
// network faults without forcing a full resync.
const defaultShipBuffer = 1024

// maxShipBytes bounds the ring's payload memory regardless of record
// count; oversized tails evict from the head like overlong ones.
const maxShipBytes = 8 << 20

// ErrShipBehind reports a ShipFrom offset older than the ship log's
// head: the records were evicted (or folded into a snapshot before this
// process started), so the follower must be bootstrapped.
var ErrShipBehind = errors.New("corpus: ship offset predates the ship log; follower needs a bootstrap")

// ErrShipAhead reports a ShipFrom offset beyond the committed LSN: the
// follower claims records this corpus never produced (a diverged
// follower, e.g. an old primary), and must be bootstrapped onto this
// corpus's history.
var ErrShipAhead = errors.New("corpus: ship offset is beyond the committed log; follower has diverged")

// shipLog is the bounded ring of committed payloads. Guarded by the
// corpus mutex (appends happen under the write lock the mutation
// already holds; readers take the read lock).
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

// lsnLocked computes the logical sequence number; caller holds c.mu.
func (c *Corpus) lsnLocked() uint64 {
	tombstones := len(c.alive) - c.live
	return uint64(len(c.alive) + tombstones)
}

// LSN returns the corpus's logical sequence number: the total count of
// committed mutations (adds plus deletes) over its whole history.
func (c *Corpus) LSN() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.lsnLocked()
}

// shipAppend retains one committed payload in the ship ring (copying it
// — callers reuse their encode buffers) and wakes blocked shippers.
// Caller holds c.mu and has already applied the mutation, so the ring's
// tail LSN is the current lsnLocked(). No-op before Open completes
// (WAL replay must not be buffered).
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
// served incrementally and the follower needs a bootstrap. The returned
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

// ApplyShipped commits shipped payloads (see ShipFrom and
// BootstrapPayloads) as one commit, appending each verbatim, up to the
// first that does not decode or apply: it returns the committed records
// in order and that payload's error.
func (c *Corpus) ApplyShipped(payloads [][]byte) ([]Record, error) {
	recs := make([]Record, 0, len(payloads))
	var bad error
	for i, p := range payloads {
		wr, err := decodeRecord(p)
		if err != nil {
			bad = fmt.Errorf("corpus: shipped record %d: %w", i, err)
			break
		}
		r := Record{Delete: wr.op == opDelete, SID: wr.sid, payload: p}
		if !r.Delete {
			r.TS = token.New(wr.tokens)
		}
		recs = append(recs, r)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.commit(recs)
	if err == nil {
		err = bad
	}
	return recs[:n], err
}

// BootstrapPayloads synthesizes a full-state record stream: applied in
// order to an empty corpus, it reproduces this corpus's logical state
// and — because every tombstoned id contributes one add and one delete,
// exactly as it did historically — its exact LSN, which is returned.
// Tombstones are emitted as an empty-string add immediately followed by
// its delete (tombstone content is not retained, and logical state does
// not include it).
func (c *Corpus) BootstrapPayloads() ([][]byte, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tombstones := len(c.alive) - c.live
	out := make([][]byte, 0, len(c.alive)+tombstones)
	var buf []byte
	for sid, alive := range c.alive {
		if alive {
			buf = encodeAdd(buf, c.tc.Strings[sid])
			out = append(out, append([]byte(nil), buf...))
			continue
		}
		buf = encodeAdd(buf, token.TokenizedString{})
		out = append(out, append([]byte(nil), buf...))
		buf = encodeDelete(buf, token.StringID(sid))
		out = append(out, append([]byte(nil), buf...))
	}
	return out, c.lsnLocked()
}
