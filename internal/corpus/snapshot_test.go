package corpus

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/iofault"
	"repro/internal/token"
)

// snapBody assembles a snapshot body (everything but the trailing CRC)
// field by field, so a test can write what the snapshot writer never
// would. Version 1 carries an epoch, a re-rank count and the per-token
// rank and frozen fields; every other version writes the version-2
// layout and ignores rank and frozen. flags[i] is string i's flag byte;
// strs[i] its ids when the flag is not 0.
func snapBody(version uint32, tokens []string, rank, frozen []uint64, flags []byte, strs [][]uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(snapMagic), version)
	b = binary.LittleEndian.AppendUint64(b, 3) // gen
	if version == snapVersion1 {
		b = binary.LittleEndian.AppendUint64(b, 2) // epoch
		b = binary.LittleEndian.AppendUint64(b, 1) // reranks
	}
	b = binary.AppendUvarint(b, uint64(len(tokens)))
	for _, t := range tokens {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	if version == snapVersion1 {
		for _, v := range append(append([]uint64(nil), rank...), frozen...) {
			b = binary.AppendUvarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(flags)))
	for i, f := range flags {
		b = append(b, f)
		if f == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(strs[i])))
		for _, id := range strs[i] {
			b = binary.AppendUvarint(b, id)
		}
	}
	return b
}

// withCRC appends the CRC-32C the reader checks, so a body built or
// mutated by a test reaches the decoder proper.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, castagnoli))
}

// validSnapBody is a small well-formed version-1 body: two tokens, one
// alive string holding "a a b", one tombstone.
func validSnapBody() []byte {
	return snapBody(snapVersion1, []string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil})
}

// rejectedSnapBodies are bodies that differ from validSnapBody in one
// field the writer never produced, or in the version.
func rejectedSnapBodies() map[string][]byte {
	overlong := validSnapBody()
	tokCount := len(snapMagic) + 4 + 24
	overlong = append(append(overlong[:tokCount:tokCount], 0x82, 0x00), overlong[tokCount+1:]...)
	v1 := func(tokens []string, rank, frozen []uint64, flags []byte, strs [][]uint64) []byte {
		return snapBody(snapVersion1, tokens, rank, frozen, flags, strs)
	}
	return map[string][]byte{
		"rank 2^32+5": v1([]string{"a", "b"}, []uint64{1<<32 + 5, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"rank 2^31":   v1([]string{"a", "b"}, []uint64{1 << 31, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"frozen 2^31": v1([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1 << 31}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"flag 2":      v1([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{2, 0}, [][]uint64{{0, 0, 1}, nil}),
		"overlong":    overlong,
		"dup token":   v1([]string{"a", "a"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"unsorted":    v1([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{1, 0, 0}, nil}),
		"empty token": v1([]string{"", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 1}, nil}),
		"version 0":   snapBody(0, []string{"a", "b"}, nil, nil, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"version 3":   snapBody(3, []string{"a", "b"}, nil, nil, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
	}
}

// TestDecodeSnapshotRejectsForeignBytes: each one-field departure from
// what the writer produces is refused, while the bodies it departs from
// load. Before the checks, a rank of 2^32+5 loaded as 5, 2^31 as -2^31,
// any non-zero flag as alive, 0x82 0x00 as 2, and a repeated token
// aliased in the intern map.
func TestDecodeSnapshotRejectsForeignBytes(t *testing.T) {
	if _, err := decodeSnapshot(withCRC(validSnapBody())); err != nil {
		t.Fatalf("valid version-1 body rejected: %v", err)
	}
	v2 := snapBody(snapVersion, []string{"a", "b"}, nil, nil, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil})
	if _, err := decodeSnapshot(withCRC(v2)); err != nil {
		t.Fatalf("valid version-2 body rejected: %v", err)
	}
	for name, body := range rejectedSnapBodies() {
		if st, err := decodeSnapshot(withCRC(body)); err == nil {
			t.Errorf("%s: accepted, alive %v tokens %q", name, st.alive, st.tokens)
		}
	}
}

// TestSnapshotV1StillOpens: a data directory whose newest snapshot is a
// version-1 file — with a tombstone and a non-zero epoch and rank —
// opens, replays the WAL written on top of it, and is checkpointed as
// version 2, which reopens to the same state.
func TestSnapshotV1StillOpens(t *testing.T) {
	dir := t.TempDir()
	body := snapBody(snapVersion1, []string{"a", "b", "c"}, []uint64{2, 0, 1}, []uint64{1, 0, 2},
		[]byte{1, 0, 1}, [][]uint64{{0, 0, 1}, nil, {1, 2}})
	if err := os.WriteFile(snapPath(dir, 3), withCRC(body), 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, dir, Options{DisableSync: true})
	if _, err := c.Add("c d"); err != nil { // logged to wal-3, on top of the snapshot
		t.Fatal(err)
	}
	if err := c.Delete(0); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c = mustOpen(t, dir, Options{DisableSync: true})
	want := []string{"\x00dead", "\x00dead", token.New([]string{"b", "c"}).Key(), token.New([]string{"c", "d"}).Key()}
	if got := logicalState(c); !statesEqual(got, want) {
		t.Fatalf("state %q, want %q", got, want)
	}
	// Two adds and a delete in the snapshot's history, one add and one
	// delete since: 3 + 1 adds, 2 deletes.
	if st := c.Stats(); st.Generation != 3 || st.WALReplayed != 2 || c.LSN() != 6 || st.Live != 2 {
		t.Fatalf("generation %d, replayed %d, LSN %d, live %d; want 3, 2, 6, 2", st.Generation, st.WALReplayed, c.LSN(), st.Live)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	raw, err := os.ReadFile(snapPath(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[len(snapMagic):]); v != snapVersion {
		t.Fatalf("checkpoint wrote snapshot version %d, want %d", v, snapVersion)
	}
	c = mustOpen(t, dir, Options{DisableSync: true})
	defer c.Close()
	if got := logicalState(c); !statesEqual(got, want) {
		t.Fatalf("version-2 reopen: state %q, want %q", got, want)
	}
	if st := c.Stats(); st.Generation != 4 || c.LSN() != 6 {
		t.Fatalf("version-2 reopen: generation %d, LSN %d; want 4, 6", st.Generation, c.LSN())
	}
}

// FuzzReadSnapshot: the fuzzed input is a snapshot body; the harness
// appends its CRC so mutations reach the body decoder. Decoding never
// panics, allocates within a constant factor of its input (no count
// sizes an allocation beyond the payload left to back it), and an
// accepted snapshot, installed with applySnapshot and written back out by
// the snapshot writer, reads back to the same snapState.
func FuzzReadSnapshot(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir, Options{DisableSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{"Barak Obama", "Obamma, Boraak H.", "bo bo", "", "Zoë Ángel"} {
		if _, err := c.Add(s); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Delete(1); err != nil {
		f.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		f.Fatal(err)
	}
	gen := c.Stats().Generation
	c.Close()
	raw, err := os.ReadFile(snapPath(dir, gen))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw[:len(raw)-4]) // a real version-2 snapshot
	f.Add(validSnapBody())  // a version-1 body
	for _, body := range rejectedSnapBodies() {
		f.Add(body)
	}

	scratch := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := withCRC(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := decodeSnapshot(raw)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(raw)+64<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, want at most %d", len(raw), grew, limit)
		}
		if err != nil {
			return
		}
		c := &Corpus{dir: scratch, fs: iofault.OS, opt: Options{DisableSync: true}}
		c.applySnapshot(st)
		path, err := c.writeSnapshotTemp(st.gen)
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		back, err := readSnapshot(iofault.OS, path)
		if err != nil {
			t.Fatalf("accepted %x, but its rewrite is refused: %v", body, err)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("accepted %x, which rewrites to a different state:\n got %+v\nwant %+v", body, back, st)
		}
	})
}
