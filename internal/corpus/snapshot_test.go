package corpus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/iofault"
	"repro/internal/token"
)

// version1 is the snapshot layout written before the corpus stopped
// keeping a frequency order of its own; decodeSnapshot no longer reads it.
const version1 = 1

// snapBody assembles a snapshot body (everything but the trailing CRC)
// field by field, so a test can write what the snapshot writer never
// would. Version 1 carries an epoch, a re-rank count and a rank and a
// frozen frequency per token, as that layout did; every other version
// writes the version-2 layout. flags[i] is string i's flag byte; strs[i]
// its ids when the flag is not 0.
func snapBody(version uint32, tokens []string, flags []byte, strs [][]uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(snapMagic), version)
	b = binary.LittleEndian.AppendUint64(b, 3) // gen
	if version == version1 {
		b = binary.LittleEndian.AppendUint64(b, 2) // epoch
		b = binary.LittleEndian.AppendUint64(b, 1) // reranks
	}
	b = binary.AppendUvarint(b, uint64(len(tokens)))
	for _, t := range tokens {
		b = binary.AppendUvarint(b, uint64(len(t)))
		b = append(b, t...)
	}
	if version == version1 {
		for i := range tokens { // rank
			b = binary.AppendUvarint(b, uint64(len(tokens)-1-i))
		}
		for range tokens { // frozen
			b = binary.AppendUvarint(b, 1)
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

// validSnapBody is a small well-formed version-2 body: two tokens, one
// alive string holding "a a b", one tombstone.
func validSnapBody() []byte {
	return snapBody(snapVersion, []string{"a", "b"}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil})
}

// rejectedSnapBodies are bodies that differ from validSnapBody in one
// field the writer never produced, or in the version.
func rejectedSnapBodies() map[string][]byte {
	overlong := validSnapBody()
	tokCount := len(snapMagic) + 4 + 8
	overlong = append(append(overlong[:tokCount:tokCount], 0x82, 0x00), overlong[tokCount+1:]...)
	v2 := func(tokens []string, flags []byte, strs [][]uint64) []byte {
		return snapBody(snapVersion, tokens, flags, strs)
	}
	return map[string][]byte{
		"flag 2":      v2([]string{"a", "b"}, []byte{2, 0}, [][]uint64{{0, 0, 1}, nil}),
		"overlong":    overlong,
		"dup token":   v2([]string{"a", "a"}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"unsorted":    v2([]string{"a", "b"}, []byte{1, 0}, [][]uint64{{1, 0, 0}, nil}),
		"empty token": v2([]string{"", "b"}, []byte{1, 0}, [][]uint64{{0, 1}, nil}),
		"id range":    v2([]string{"a", "b"}, []byte{1, 0}, [][]uint64{{0, 0, 2}, nil}),
		"trailing":    append(validSnapBody(), 0),
		"version 0":   snapBody(0, []string{"a", "b"}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"version 1":   snapBody(version1, []string{"a", "b"}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
		"version 3":   snapBody(3, []string{"a", "b"}, []byte{1, 0}, [][]uint64{{0, 0, 1}, nil}),
	}
}

// TestDecodeSnapshotRejectsForeignBytes: each one-field departure from
// what the writer produces is refused, while the body it departs from
// loads. Before the checks, any non-zero flag loaded as alive, 0x82 0x00
// as 2, and a repeated token aliased in the intern map.
func TestDecodeSnapshotRejectsForeignBytes(t *testing.T) {
	if _, err := decodeSnapshot(withCRC(validSnapBody())); err != nil {
		t.Fatalf("valid version-2 body rejected: %v", err)
	}
	for name, body := range rejectedSnapBodies() {
		if st, err := decodeSnapshot(withCRC(body)); err == nil {
			t.Errorf("%s: accepted, alive %v tokens %q", name, st.alive, st.tc.Tokens)
		}
	}
}

// TestSnapshotV1Refused: a data directory whose only snapshot is a
// version-1 file does not open, neither alone nor with the WAL written on
// top of it, and is left as it was for a build that still reads it. An
// empty corpus there would present the data as lost, and one holding
// only the WAL's records would give them the wrong ids.
func TestSnapshotV1Refused(t *testing.T) {
	body := withCRC(snapBody(version1, []string{"a", "b", "c"}, []byte{1, 0, 1}, [][]uint64{{0, 0, 1}, nil, {1, 2}}))
	for _, withWAL := range []bool{false, true} {
		dir := t.TempDir()
		if err := os.WriteFile(snapPath(dir, 3), body, 0o644); err != nil {
			t.Fatal(err)
		}
		if withWAL {
			w, err := newWALWriter(iofault.OS, walPath(dir, 3), 0, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, payload := range [][]byte{encodeAdd(nil, token.New([]string{"c", "d"})), encodeDelete(nil, 0)} {
				if err := w.appendDeferred(payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
		}
		for attempt := 0; attempt < 2; attempt++ { // the failed Open releases the lock
			if c, err := Open(dir, Options{DisableSync: true}); err == nil {
				st := c.Stats()
				c.Close()
				t.Fatalf("wal %v: opened with %d strings, %d live, LSN %d", withWAL, st.Strings, st.Live, c.LSN())
			}
		}
		if raw, err := os.ReadFile(snapPath(dir, 3)); err != nil || !bytes.Equal(raw, body) {
			t.Fatalf("wal %v: the version-1 snapshot was not left as it was (%v)", withWAL, err)
		}
		gens, err := listGens(iofault.OS, dir, snapPrefix, snapSuffix)
		if err != nil || len(gens) != 1 {
			t.Fatalf("wal %v: snapshot generations %v (%v), want only 3", withWAL, gens, err)
		}
	}
}

// FuzzReadSnapshot: the fuzzed input is a snapshot body; the harness
// appends its CRC so mutations reach the body decoder. Decoding never
// panics, allocates within a constant factor of its input (no count
// sizes an allocation beyond the payload left to back it), and an
// accepted snapshot, installed with applySnapshot, holds the snapshot's
// token table with the ids it had, counts each token once per alive string
// that lists it, and lists each string's distinct ids in lexicographic
// token order; written back out by the snapshot writer, it reads back to
// the same snapState.
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
	f.Add(validSnapBody())  // a hand-built version-2 body
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
		want, _ := decodeSnapshot(raw) // st is adopted and grown by applySnapshot
		c := &Corpus{dir: scratch, fs: iofault.OS, opt: Options{DisableSync: true}}
		c.applySnapshot(st)
		v := c.View().TC
		if !slices.Equal(v.Tokens, want.tc.Tokens) {
			t.Fatalf("accepted %x, installed tokens %q, want %q", body, v.Tokens, want.tc.Tokens)
		}
		freq := make([]int32, len(want.tc.Tokens))
		for sid, ids := range want.strs {
			mem := slices.Compact(slices.Clone(ids))
			if !slices.Equal(v.Members[sid], mem) {
				t.Fatalf("accepted %x, string %d: members %v, want %v", body, sid, v.Members[sid], mem)
			}
			for i, id := range mem {
				if i > 0 && v.Tokens[id] <= v.Tokens[mem[i-1]] {
					t.Fatalf("accepted %x, string %d: members %v not in lexicographic token order", body, sid, mem)
				}
				freq[id]++
			}
		}
		if !slices.Equal(v.Freq, freq) {
			t.Fatalf("accepted %x, installed frequencies %v, want %v", body, v.Freq, freq)
		}
		path, err := c.writeSnapshotTemp(st.gen)
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		back, err := readSnapshot(iofault.OS, path)
		if err != nil {
			t.Fatalf("accepted %x, but its rewrite is refused: %v", body, err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("accepted %x, which rewrites to a different state:\n got %+v\nwant %+v", body, back, want)
		}
	})
}

// TestSnapshotEncodeAllocations: the encoder appends into one reused
// buffer, so encoding a state costs a fixed handful of allocations
// whatever its size, and an encoding over a chunk long still decodes
// to the state it was made from.
func TestSnapshotEncodeAllocations(t *testing.T) {
	c, err := Open(t.TempDir(), Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6000; i++ {
		if _, err := c.Add(fmt.Sprintf("name%d surname%d given%d", i, i%37, i%101)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(7); err != nil {
		t.Fatal(err)
	}
	v := c.View()
	var buf bytes.Buffer
	allocs := testing.AllocsPerRun(5, func() {
		buf.Reset()
		if err := encodeSnapshot(&buf, 1, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("encoding %d strings made %.0f allocations, want at most 4", len(v.Alive), allocs)
	}
	if buf.Len() <= crcChunk {
		t.Fatalf("encoding is %d bytes, want more than one %d-byte chunk", buf.Len(), crcChunk)
	}
	lsn, err := CheckSnapshot(buf.Bytes())
	if err != nil || lsn != c.LSN() {
		t.Fatalf("encoding decodes to lsn %d (%v), want %d", lsn, err, c.LSN())
	}
}
