package corpus

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/iofault"
)

// snapBody assembles a snapshot body (everything but the trailing CRC)
// field by field, so a test can write what the snapshot writer never
// would. flags[i] is string i's flag byte; strs[i] its ids when the flag
// is not 0.
func snapBody(tokens []string, rank, frozen []uint64, flags []byte, strs [][]uint64) []byte {
	b := append([]byte(snapMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(snapMagic):], snapVersion)
	b = binary.LittleEndian.AppendUint64(b, 3) // gen
	b = binary.LittleEndian.AppendUint64(b, 2) // epoch
	b = binary.LittleEndian.AppendUint64(b, 1) // reranks
	b = binary.AppendUvarint(b, uint64(len(tokens)))
	for _, t := range tokens {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	for _, v := range append(append([]uint64(nil), rank...), frozen...) {
		b = binary.AppendUvarint(b, v)
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

// validSnapBody is a small well-formed body: two tokens, one alive
// string holding "a a b", one tombstone.
func validSnapBody() []byte {
	return snapBody([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil})
}

// rejectedSnapBodies are bodies that differ from validSnapBody in one
// field the writer never produces.
func rejectedSnapBodies() map[string][]byte {
	overlong := validSnapBody()
	tokCount := len(snapMagic) + 4 + 24
	overlong = append(append(overlong[:tokCount:tokCount], 0x82, 0x00), overlong[tokCount+1:]...)
	return map[string][]byte{
		"rank 2^32+5": snapBody([]string{"a", "b"}, []uint64{1<<32 + 5, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"rank 2^31":   snapBody([]string{"a", "b"}, []uint64{1 << 31, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"frozen 2^31": snapBody([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1 << 31}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"flag 2":      snapBody([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{2, 0}, [][]uint64{{0, 0, 1}, nil}),
		"overlong":    overlong,
		"dup token":   snapBody([]string{"a", "a"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"unsorted":    snapBody([]string{"a", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{1, 0, 0}, nil}),
		"empty token": snapBody([]string{"", "b"}, []uint64{1, 0}, []uint64{1, 1}, []byte{1, 0}, [][]uint64{{0, 1}, nil}),
	}
}

// TestDecodeSnapshotRejectsForeignBytes: each one-field departure from
// what the writer produces is refused, while the body it departs from
// loads. Before the checks, a rank of 2^32+5 loaded as 5, 2^31 as -2^31,
// any non-zero flag as alive, 0x82 0x00 as 2, and a repeated token
// aliased in the intern map.
func TestDecodeSnapshotRejectsForeignBytes(t *testing.T) {
	if _, err := decodeSnapshot(withCRC(validSnapBody())); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	for name, body := range rejectedSnapBodies() {
		if st, err := decodeSnapshot(withCRC(body)); err == nil {
			t.Errorf("%s: accepted, rank %v frozen %v alive %v tokens %q", name, st.rank, st.frozen, st.alive, st.tokens)
		}
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
	f.Add(raw[:len(raw)-4])
	f.Add(validSnapBody())
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
