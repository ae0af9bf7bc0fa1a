package corpus

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/iofault"
	"repro/internal/namegen"
	"repro/internal/token"
)

// walFileSize returns the current size of the generation-g log.
func walFileSize(t *testing.T, dir string, gen uint64) int64 {
	t.Helper()
	fi, err := os.Stat(walPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// corrupt flips one byte at offset in the generation-g log.
func corrupt(t *testing.T, dir string, gen uint64, offset int64) {
	t.Helper()
	f, err := os.OpenFile(walPath(dir, gen), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], offset); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], offset); err != nil {
		t.Fatal(err)
	}
}

// TestWALTruncatedTail: a frame cut mid-payload (a crash during the last
// write) is detected and ignored; every record before it survives, and
// the log keeps accepting appends afterwards.
func TestWALTruncatedTail(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 20, NumNames: 25})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := walFileSize(t, dir, 0)
	c.Close()

	// Cut the last frame short by a few bytes.
	if err := os.Truncate(walPath(dir, 0), sizeBefore-3); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	if got := r.Stats().WALReplayed; got != int64(len(names)-1) {
		t.Fatalf("WALReplayed = %d, want %d (torn tail dropped)", got, len(names)-1)
	}
	if r.Len() != len(names)-1 {
		t.Fatalf("Len = %d, want %d", r.Len(), len(names)-1)
	}
	// The torn bytes were truncated away; new appends start cleanly.
	if _, err := r.Add("replacement name"); err != nil {
		t.Fatal(err)
	}
	want := logicalState(r)
	r.Close()
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if !statesEqual(logicalState(r2), want) {
		t.Fatal("post-recovery append did not survive a reopen")
	}
}

// TestWALCorruptTailCRC: a bit flip in the last frame's payload fails the
// CRC; the frame (and only that frame) is dropped.
func TestWALCorruptTailCRC(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 21, NumNames: 25})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	size := walFileSize(t, dir, 0)
	c.Close()

	corrupt(t, dir, 0, size-2) // inside the last frame's payload
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Stats().WALReplayed; got != int64(len(names)-1) {
		t.Fatalf("WALReplayed = %d, want %d (corrupt tail dropped)", got, len(names)-1)
	}
	if r.Len() != len(names)-1 {
		t.Fatalf("Len = %d, want %d", r.Len(), len(names)-1)
	}
}

// TestWALCorruptMiddle: corruption in an interior frame ends the replay
// there — the prefix before it is recovered, nothing after it is
// half-applied, and the log is truncated back so later appends produce a
// consistent file.
func TestWALCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	var offsets []int64
	for _, n := range []string{"alpha one", "beta two", "gamma three", "delta four"} {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, walFileSize(t, dir, 0))
	}
	c.Close()

	// Flip a byte inside the third record's frame.
	corrupt(t, dir, 0, offsets[1]+9)
	r := mustOpen(t, dir, Options{})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (replay stops at first bad frame)", r.Len())
	}
	if got := walFileSize(t, dir, 0); got != offsets[1] {
		t.Fatalf("log not truncated to last good frame: %d, want %d", got, offsets[1])
	}
	if _, err := r.Add("epsilon five"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if r2.Len() != 3 {
		t.Fatalf("post-recovery Len = %d, want 3", r2.Len())
	}
}

// TestWALBadHeaderFailsLoudly: a full-length header that is not ours is
// bit rot (or a foreign file), not a crash artifact — Open must error
// rather than silently discard and truncate every record behind it. A
// header cut short by a crash during log creation, by contrast, is a
// clean empty log.
func TestWALBadHeaderFailsLoudly(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 24, NumNames: 10})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	corrupt(t, dir, 0, 2) // inside the magic
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open must fail on a corrupt wal header")
	}

	// Crash-during-creation: header cut short, no records possible.
	dir2 := t.TempDir()
	c2 := mustOpen(t, dir2, Options{})
	c2.Close()
	if err := os.Truncate(walPath(dir2, 0), 3); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir2, Options{})
	defer r.Close()
	if r.Len() != 0 {
		t.Fatalf("Len = %d after truncated-header recovery", r.Len())
	}
	if _, err := r.Add("fresh start"); err != nil {
		t.Fatal(err)
	}
}

// TestWALRollback: frames appended after a mark are discarded by
// rollback — the mechanism that keeps a failed Add/batch from leaving
// unapplied records in the log (which a replay would resurrect, shifting
// every later id).
func TestWALRollback(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if _, err := c.Add("kept one"); err != nil {
		t.Fatal(err)
	}
	// Simulate the failure path by hand on the writer: append two frames,
	// roll them back, append a different one.
	m := c.wal.mark()
	if err := c.wal.appendDeferred(encodeAdd(nil, c.opt.Tokenizer("phantom a"))); err != nil {
		t.Fatal(err)
	}
	if err := c.wal.appendDeferred(encodeAdd(nil, c.opt.Tokenizer("phantom b"))); err != nil {
		t.Fatal(err)
	}
	c.wal.rollback(m)
	if _, err := c.Add("kept two"); err != nil {
		t.Fatal(err)
	}
	c.Close()

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (phantom frames must not replay)", r.Len())
	}
	if got := r.View().TC.Strings[1].Key(); got != "kept\x1ftwo" {
		t.Fatalf("id 1 = %q after rollback", got)
	}
}

// TestDecodeRecordBoundsCounts: a record whose token count exceeds the
// payload (corruption that passed the CRC) must fail decoding rather
// than size an allocation by the bogus count.
func TestDecodeRecordBoundsCounts(t *testing.T) {
	payload := []byte{opAdd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // count ~2^49
	if _, err := decodeRecord(payload); err == nil {
		t.Fatal("absurd token count must fail decoding")
	}
}

// FuzzDecodeRecord: the decoder never panics, never returns more token
// bytes than its payload holds, and accepts only what the encoders write —
// an accepted payload re-encodes to the same bytes. The seeds include
// three payloads the encoders never write: a delete of id 2^32+5 (it once
// decoded as a delete of 5), a delete of id 2^31 (once -2^31) and an
// overlong uvarint (0x80 0x00, once read as 0).
func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeAdd(nil, token.WhitespaceAndPunct("Barak Obama, Obama")))
	f.Add(encodeAdd(nil, token.TokenizedString{}))
	f.Add(encodeDelete(nil, 0))
	f.Add(encodeDelete(nil, 1<<31-1))
	f.Add(binary.AppendUvarint([]byte{opDelete}, 1<<32+5))
	f.Add(binary.AppendUvarint([]byte{opDelete}, 1<<31))
	f.Add([]byte{opDelete, 0x80, 0x00})
	f.Add([]byte{opAdd, 0x81, 0x00, 0x01, 'a'})
	f.Add([]byte{opAdd, 0x01, 0x81, 0x00, 'a'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		var again []byte
		switch rec.op {
		case opAdd:
			n := 0
			for _, tok := range rec.tokens {
				n += len(tok)
			}
			if n > len(payload) {
				t.Fatalf("%x: %d token bytes from a %d-byte payload", payload, n, len(payload))
			}
			again = encodeAdd(nil, token.TokenizedString{Tokens: rec.tokens})
		case opDelete:
			again = encodeDelete(nil, rec.sid)
		default:
			t.Fatalf("%x: accepted op 0x%02x", payload, rec.op)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x, which re-encodes as %x", payload, again)
		}
	})
}

// FuzzReplayWAL: the fuzzed input is a whole log file. Replay never
// panics, never reports an offset past the end of the file, never
// allocates beyond a constant factor of the bytes the file holds — a frame
// header announcing more than remains is a torn frame, not an allocation
// request — and the prefix it accepts, re-framed through walWriter, is
// byte for byte the file up to that offset. The last seed is 20 bytes
// whose one frame header announces 64 MiB−1: replay once allocated the
// whole announcement before finding the file short.
func FuzzReplayWAL(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir, Options{DisableSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{"Barak Obama", "Obamma, Boraak H.", "bo bo", "Zoë Ángel"} {
		if _, err := c.Add(s); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Delete(1); err != nil {
		f.Fatal(err)
	}
	c.Close()
	log, err := os.ReadFile(walPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])                                                           // torn tail
	f.Add(append(log[:len(log)-2:len(log)-2], log[len(log)-2]^0xff, log[len(log)-1])) // bad CRC
	huge := binary.LittleEndian.AppendUint32([]byte(walMagic), maxWALPayload-1)
	f.Add(append(huge, 0, 0, 0, 0, 'a', 'b', 'c', 'd'))

	scratch := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(scratch, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []walRecord
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		offset, records, clean, err := replayWAL(iofault.OS, path, func(r walRecord) error {
			recs = append(recs, r)
			return nil
		})
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+64<<10); grew > limit {
			t.Fatalf("replaying %d bytes allocated %d, want at most %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if offset > int64(len(data)) || records != int64(len(recs)) || clean && offset > 0 && offset != int64(len(data)) {
			t.Fatalf("%d-byte log: offset %d, %d records (%d applied), clean %v", len(data), offset, records, len(recs), clean)
		}
		if offset == 0 {
			if records != 0 {
				t.Fatalf("%d records applied before the header", records)
			}
			return
		}
		again := filepath.Join(scratch, "again.wal")
		os.Remove(again)
		w, err := newWALWriter(iofault.OS, again, 0, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, r := range recs {
			if r.op == opAdd {
				buf = encodeAdd(buf, token.TokenizedString{Tokens: r.tokens})
			} else {
				buf = encodeDelete(buf, r.sid)
			}
			if err := w.appendDeferred(buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[:offset]) {
			t.Fatalf("accepted prefix %x re-frames as %x", data[:offset], got)
		}
	})
}

// TestWALSyncBatching: SyncEvery > 1 defers fsync but Sync/Close force
// it; records written under batching all survive a reopen after Close.
func TestWALSyncBatching(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 22, NumNames: 17})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{SyncEvery: 8})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	want := logicalState(c)
	c.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if !statesEqual(logicalState(r), want) {
		t.Fatal("batched-sync reopen differs")
	}
}

// TestWALBatchGroupCommit: AddTokenizedBatch assigns a dense id range and
// survives a reopen with one group-commit sync.
func TestWALBatchGroupCommit(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 23, NumNames: 40})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if _, err := c.Add(names[0]); err != nil {
		t.Fatal(err)
	}
	tok := c.opt.Tokenizer
	batch := make([]token.TokenizedString, len(names)-1)
	for i, n := range names[1:] {
		batch[i] = tok(n)
	}
	first, err := c.AddTokenizedBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Fatalf("batch first = %d, want 1", first)
	}
	want := logicalState(c)
	c.Close()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if !statesEqual(logicalState(r), want) {
		t.Fatal("batch reopen differs")
	}
	if r.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(names))
	}
}
