package corpus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"

	"repro/internal/iofault"
	"repro/internal/token"
)

// The write-ahead log is a sequence of CRC-framed records appended after a
// fixed header. Each frame is
//
//	[payloadLen uint32 LE][crc32c(payload) uint32 LE][payload]
//
// and the payload is one logical mutation:
//
//	op 0x01 (add):    varint tokenCount, then tokenCount × (varint len, bytes)
//	op 0x02 (delete): varint StringID
//
// Add records carry the tokenized form, not the raw string, so replay is
// independent of the tokenizer the writing process used. String ids are
// implicit: the i-th add record after the snapshot base receives id
// base+i, which replay reproduces exactly because the log is appended
// under the corpus mutex.
//
// Recovery contract: a torn tail — a frame cut short by a crash, or one
// whose CRC does not match — ends the log. Everything before it is
// applied; the file is truncated back to the last good frame so new
// appends start from a clean boundary. A corrupt frame in the middle
// (valid frames after a bad one) is indistinguishable from a torn tail
// and is handled the same way: replay stops at the first bad frame.

const (
	walMagic = "TSJWAL1\n"

	opAdd    byte = 0x01
	opDelete byte = 0x02

	// maxWALPayload bounds a single record; a frame announcing more is
	// treated as corruption rather than an allocation request.
	maxWALPayload = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walWriter appends CRC-framed records to an open log file with batched
// fsync: a commit fsyncs once flushEvery or more appends are pending at
// its end (syncDue); sync and close flush whatever is pending.
type walWriter struct {
	f   iofault.File
	buf []byte // frame assembly scratch
	// offset is the validated length of the log: every byte below it is a
	// complete frame. Failed appends truncate back to it so the on-disk
	// prefix always equals the sequence of records the caller applied.
	offset     int64
	pending    int // appends since the last fsync
	flushEvery int
	noSync     bool
	// records and bytes count appends; Stats reads them without the log
	// lock.
	records, bytes atomic.Int64
	// broken seals the writer: no append or sync may touch the fd again.
	// It is set when a rollback failed (the log may hold a frame that was
	// never applied) or when an fsync failed (post-fsyncgate, the kernel
	// may have dropped the dirty pages and cleared the error, so a retry
	// could report success without durability — the generation must be
	// abandoned, not retried). The corpus surfaces a sealed writer as
	// ErrDegraded and heals by rotating to a fresh generation.
	broken error
}

// newWALWriter opens (creating if needed) the generation's log for append,
// writing the header on a fresh file. offset is the validated length of
// the existing log (from replay); the file is truncated there so appends
// never interleave with a torn tail.
func newWALWriter(fs iofault.FS, path string, offset int64, flushEvery int, noSync bool) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if offset == 0 {
		offset = int64(len(walMagic))
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	if flushEvery <= 0 {
		flushEvery = 1
	}
	return &walWriter{f: f, offset: offset, flushEvery: flushEvery, noSync: noSync}, nil
}

// walMark is a point the log can be rolled back to: the state before an
// operation's appends (see rollback).
type walMark struct {
	offset  int64
	records int64
	bytes   int64
	pending int
}

// mark captures the current append point.
func (w *walWriter) mark() walMark {
	return walMark{offset: w.offset, records: w.records.Load(), bytes: w.bytes.Load(), pending: w.pending}
}

// rollback truncates the log back to a mark, discarding frames appended
// since. Callers use it when an operation fails after some of its frames
// were written, so the log never holds records the in-memory state did
// not apply (a replay would otherwise resurrect them and shift every
// later id). It must run even when the tracked offset is unchanged: a
// partial frame write advances the OS file position past garbage bytes
// without advancing w.offset, and only the truncate+seek below realigns
// the physical append point with the validated prefix. If the truncate
// itself fails the writer is marked broken and every subsequent append
// fails.
func (w *walWriter) rollback(m walMark) {
	if err := w.f.Truncate(m.offset); err != nil {
		w.broken = fmt.Errorf("corpus: wal rollback failed, log may hold unapplied records: %w", err)
		return
	}
	if _, err := w.f.Seek(m.offset, io.SeekStart); err != nil {
		w.broken = fmt.Errorf("corpus: wal rollback seek failed: %w", err)
		return
	}
	w.offset, w.pending = m.offset, m.pending
	w.records.Store(m.records)
	w.bytes.Store(m.bytes)
}

// appendDeferred frames and writes one payload without consulting the
// fsync policy: a commit appends all its records, then calls syncDue
// once. A partial write is rolled back so the validated prefix stays
// intact.
func (w *walWriter) appendDeferred(payload []byte) error {
	if w.broken != nil {
		return w.broken
	}
	w.buf = w.buf[:0]
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, castagnoli))
	w.buf = append(w.buf, payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		w.rollback(w.mark())
		return err
	}
	w.offset += int64(len(w.buf))
	w.records.Add(1)
	w.bytes.Add(int64(len(w.buf)))
	w.pending++
	return nil
}

// syncDue applies the batching policy once, at the end of a commit:
// fsync when the appends pending since the last fsync number flushEvery
// or more.
func (w *walWriter) syncDue() error {
	if w.pending >= w.flushEvery {
		return w.sync()
	}
	return nil
}

// sync flushes pending appends to stable storage. An fsync failure
// seals the writer: retrying fsync on the same fd is unsound
// (post-fsyncgate kernels may drop the dirty pages and report the next
// fsync clean without having written them), so the generation is
// abandoned and the corpus must heal by rotating to a fresh one.
func (w *walWriter) sync() error {
	if w.broken != nil {
		return w.broken
	}
	if w.pending == 0 {
		return nil
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil {
			w.broken = fmt.Errorf("corpus: wal fsync failed, generation sealed: %w", err)
			return err
		}
	}
	w.pending = 0
	return nil
}

// close syncs and releases the file.
func (w *walWriter) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walRecord is one decoded log record.
type walRecord struct {
	op     byte
	tokens []string       // opAdd
	sid    token.StringID // opDelete
}

// encodeAdd renders an add record into buf (reused across calls).
func encodeAdd(buf []byte, ts token.TokenizedString) []byte {
	buf = append(buf[:0], opAdd)
	buf = binary.AppendUvarint(buf, uint64(len(ts.Tokens)))
	for _, t := range ts.Tokens {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	return buf
}

// encodeDelete renders a delete record into buf.
func encodeDelete(buf []byte, sid token.StringID) []byte {
	buf = append(buf[:0], opDelete)
	buf = binary.AppendUvarint(buf, uint64(sid))
	return buf
}

// uvarint reads one uvarint as the encoders write it: in its shortest
// form. k <= 0 means b does not start with one; an overlong form (a last
// byte of zero after a continuation byte, as in 0x80 0x00) is rejected,
// so every accepted payload has exactly one encoding.
func uvarint(b []byte) (v uint64, k int) {
	v, k = binary.Uvarint(b)
	if k > 1 && b[k-1] == 0 {
		return 0, -1
	}
	return v, k
}

// decodeRecord parses one payload. Errors mean corruption (a CRC
// collision or a writer bug); callers treat them like a bad frame. It
// accepts exactly the payloads encodeAdd and encodeDelete can write.
func decodeRecord(payload []byte) (walRecord, error) {
	if len(payload) == 0 {
		return walRecord{}, errors.New("empty payload")
	}
	op, rest := payload[0], payload[1:]
	switch op {
	case opAdd:
		n, k := uvarint(rest)
		if k <= 0 {
			return walRecord{}, errors.New("bad token count")
		}
		rest = rest[k:]
		// Every token costs at least one byte, so a count beyond the
		// remaining payload is corruption that happened to pass the CRC —
		// reject it before sizing any allocation by it.
		if n > uint64(len(rest)) {
			return walRecord{}, errors.New("token count exceeds payload")
		}
		toks := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			l, k := uvarint(rest)
			if k <= 0 || uint64(len(rest[k:])) < l {
				return walRecord{}, errors.New("bad token length")
			}
			toks = append(toks, string(rest[k:k+int(l)]))
			rest = rest[k+int(l):]
		}
		if len(rest) != 0 {
			return walRecord{}, errors.New("trailing bytes in add record")
		}
		return walRecord{op: opAdd, tokens: toks}, nil
	case opDelete:
		sid, k := uvarint(rest)
		if k <= 0 || len(rest) != k {
			return walRecord{}, errors.New("bad delete record")
		}
		// StringID is an int32: a larger id was never written, and
		// converting it would wrap onto a live string.
		if sid > math.MaxInt32 {
			return walRecord{}, fmt.Errorf("delete of id %d beyond the id space", sid)
		}
		return walRecord{op: opDelete, sid: token.StringID(sid)}, nil
	default:
		return walRecord{}, fmt.Errorf("unknown op 0x%02x", op)
	}
}

// replayWAL streams the log at path, invoking apply for every valid
// record, and returns the byte offset just past the last good frame (the
// append point for the writer). A missing file replays as empty. The
// first torn or corrupt frame ends the replay silently — that is the
// recovery contract, not an error — with clean = false so callers can
// reject damage where it must not occur (a non-final generation, whose
// successors would otherwise replay onto a shifted id space).
func replayWAL(fs iofault.FS, path string, apply func(walRecord) error) (offset int64, records int64, clean bool, err error) {
	f, err := fs.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, true, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()

	// Measure the log once: no frame header may size an allocation beyond
	// the bytes the file still holds. A torn tail announcing up to
	// maxWALPayload would otherwise cost that much before ReadFull found
	// the file short. The read buffer is bounded the same way.
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, false, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, false, err
	}
	r := bufio.NewReaderSize(f, int(min(size, 1<<20)))
	head := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, head); err != nil {
		// Shorter than the header: a crash while creating the fresh log,
		// before any record could exist. Recreating it loses nothing.
		return 0, 0, true, nil
	}
	if string(head) != walMagic {
		// A full-length header that doesn't match is bit rot or a foreign
		// file — not a crash artifact (the header is written before any
		// record). Treating it as empty would silently discard, and then
		// physically truncate, every record behind it; fail loudly
		// instead.
		return 0, 0, false, fmt.Errorf("corpus: %s is not a wal (bad header)", path)
	}
	offset = int64(len(walMagic))

	var frame [8]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			// A zero-byte read at a frame boundary is the clean end of the
			// log; anything else is a torn length/crc header.
			return offset, records, err == io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		want := binary.LittleEndian.Uint32(frame[4:])
		if n > maxWALPayload || int64(n) > size-offset-8 {
			return offset, records, false, nil // torn: the frame runs past the end
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, records, false, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return offset, records, false, nil // corrupt frame
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return offset, records, false, nil // undecodable despite CRC: stop here
		}
		if err := apply(rec); err != nil {
			return 0, 0, false, err
		}
		offset += 8 + int64(n)
		records++
	}
}
