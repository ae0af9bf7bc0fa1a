package corpus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/iofault"
	"repro/internal/token"
)

// Snapshot format (version 2). All integers little-endian; varints are
// unsigned LEB128 (encoding/binary Uvarint). The whole file is covered by
// a trailing CRC-32C, so a half-written snapshot is never loaded — Open
// falls back to the previous generation.
//
//	magic   "TSJSNAP1"                      8 bytes
//	version uint32                          = 2
//	gen     uint64                          generation number (matches file name)
//	tokens  varint count, then per token:   varint len, bytes   (TokenID order)
//	strings varint count, then per string:
//	        flag byte (1 = alive, 0 = tombstone)
//	        if alive: varint tokenCount, then tokenCount × varint TokenID
//	        (the multiset in TokenizedString order; tombstones store nothing)
//	crc32c  uint32 over everything above
//
// Version 1, written before the corpus stopped keeping a frequency order
// of its own, is no longer read: Open refuses a directory whose only
// snapshot is one. Checkpoint such a directory with a build that still
// reads it before upgrading.
//
// Tokens are distinct, no string lists an empty token, and every varint is
// in its shortest form; decodeSnapshot refuses a file that breaks any of
// these.
//
// Derived state — distinct-member lists and live frequencies — is rebuilt
// at load time from the logical state above, by adding the strings back
// to a token corpus seeded with the token table. It is cheap (one linear
// pass) and rebuilding it keeps the on-disk format small and free of
// redundancy that could disagree with itself.

const (
	snapMagic   = "TSJSNAP1"
	snapVersion = 2
	// snapHeaderLen covers magic, version and generation.
	snapHeaderLen = len(snapMagic) + 4 + 8
)

// snapPrefix/walPrefix name generation files: snap-%016x.tsj pairs with
// wal-%016x.log. A snapshot at generation g is the state with every record
// of wal generations < g applied; wal-g holds mutations since.
const (
	snapPrefix = "snap-"
	snapSuffix = ".tsj"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	// lockFileName is the advisory-flock target guarding the directory
	// against a second concurrent process (see lockDir).
	lockFileName = "LOCK"
)

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, gen, snapSuffix))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walPrefix, gen, walSuffix))
}

// parseGen extracts the generation from a snapshot or wal file name, or
// ok = false for unrelated files.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return g, err == nil
}

// listGens returns the generations present in dir for the given
// prefix/suffix, ascending.
func listGens(fs iofault.FS, dir, prefix, suffix string) ([]uint64, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), prefix, suffix); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// crcWriter hashes and writes a snapshot. The encoder appends to buf,
// which is handed on a chunk at a time, so encoding does not allocate;
// the first write error is kept, so the encoder checks once, at the end.
type crcWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

// crcChunk is how much encoding crcWriter buffers before it writes.
const crcChunk = 64 << 10

// write hashes and writes the buffered encoding, then p.
func (cw *crcWriter) write(p []byte) {
	for _, b := range [2][]byte{cw.buf, p} {
		if cw.err == nil && len(b) > 0 {
			cw.crc = crc32.Update(cw.crc, castagnoli, b)
			_, cw.err = cw.w.Write(b)
		}
	}
	cw.buf = cw.buf[:0]
}

// uvarint appends v, and writes the buffer once a chunk has built up.
func (cw *crcWriter) uvarint(v uint64) {
	if cw.buf = binary.AppendUvarint(cw.buf, v); len(cw.buf) >= crcChunk {
		cw.write(nil)
	}
}

// encodeSnapshot writes v in the snapshot format above, stamped with
// generation gen. It reads only v, so a caller holding a captured View
// encodes outside the corpus's locks.
func encodeSnapshot(w io.Writer, gen uint64, v *View) error {
	return writeSnapshot(w, gen, func(cw *crcWriter) {
		cw.uvarint(uint64(v.TC.NumTokens()))
		for _, t := range v.TC.Tokens {
			cw.uvarint(uint64(len(t)))
			cw.buf = append(cw.buf, t...)
		}
		cw.uvarint(uint64(len(v.Alive)))
		idBuf := make([]token.TokenID, 0, 16)
		for sid, alive := range v.Alive {
			if !alive {
				cw.buf = append(cw.buf, 0)
				continue
			}
			cw.buf = append(cw.buf, 1)
			idBuf = multisetIDs(v.TC, sid, idBuf[:0])
			cw.uvarint(uint64(len(idBuf)))
			for _, tid := range idBuf {
				cw.uvarint(uint64(tid))
			}
		}
	})
}

// writeSnapshot frames a snapshot: the header for generation gen, the
// body that body writes, and the CRC over both.
func writeSnapshot(w io.Writer, gen uint64, body func(*crcWriter)) error {
	cw := &crcWriter{w: w, buf: make([]byte, 0, 2*crcChunk)}
	cw.buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(append(cw.buf, snapMagic...), snapVersion), gen)
	body(cw)
	cw.write(nil)
	if cw.err != nil {
		return cw.err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, cw.crc))
	return err
}

// writeSnapshotTemp serializes the corpus state (caller holds the log
// lock, so no install runs meanwhile) into a fully fsynced, closed temp
// file and returns its path. The caller renames it into place: keeping
// the rename out of this function lets snapshotLocked order it against
// the new generation's WAL creation so that no failure interleaving can
// leave an orphan snapshot shadowing later appends to the old
// generation. On error the temp file is removed (best-effort; an
// unrenamed temp is invisible to Open and swept by removeStaleTemp at
// the next start).
func (c *Corpus) writeSnapshotTemp(gen uint64) (string, error) {
	v := &View{TC: c.tc, Alive: c.alive, Live: c.live}
	return c.writeTemp(func(w io.Writer) error { return encodeSnapshot(w, gen, v) })
}

// writeTemp writes a snapshot temp file in the data directory — encode
// fills it, then it is flushed, fsynced and closed — and returns its
// path; on error the temp file is removed.
func (c *Corpus) writeTemp(encode func(io.Writer) error) (path string, err error) {
	tmp, err := c.fs.CreateTemp(c.dir, "snap-*.tmp")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			c.fs.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err = encode(bw); err != nil {
		return "", err
	}
	if err = bw.Flush(); err != nil {
		return "", err
	}
	if !c.opt.DisableSync {
		if err = tmp.Sync(); err != nil {
			return "", err
		}
	}
	if err = tmp.Close(); err != nil {
		return "", err
	}
	return tmp.Name(), nil
}

// multisetIDs maps a string's token multiset (sorted, with duplicates)
// onto TokenIDs using the distinct member list: tokens and the distinct
// token space are both lexicographically ordered within the string, so
// the distinct index advances exactly when the token changes.
func multisetIDs(tc *token.Corpus, sid int, buf []token.TokenID) []token.TokenID {
	ts, mem := &tc.Strings[sid], tc.Members[sid]
	di := 0
	for i, t := range ts.Tokens {
		if i > 0 && t != ts.Tokens[i-1] {
			di++
		}
		buf = append(buf, mem[di])
	}
	return buf
}

// syncDir fsyncs the data directory so renames and creations are durable.
func (c *Corpus) syncDir() error {
	if c.opt.DisableSync {
		return nil
	}
	return c.fs.SyncDir(c.dir)
}

// snapState is the decoded logical content of a snapshot file.
type snapState struct {
	gen uint64
	// tc is the token table, seeded with no strings: its intern map is
	// built while decoding (where it catches duplicate tokens) and the
	// corpus adopts it in applySnapshot.
	tc *token.Corpus
	// strs[i] is nil for tombstones, else the multiset of TokenIDs.
	strs  [][]token.TokenID
	alive []bool
	live  int
}

// readSnapshot loads and decodes one snapshot file.
func readSnapshot(fs iofault.FS, path string) (*snapState, error) {
	raw, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(raw)
}

// decodeSnapshot CRC-verifies and parses a snapshot. It accepts exactly
// what writeSnapshotTemp writes (the format comment above), with string
// flags 0 and 1 and each alive string's ids sorted by token. Anything else
// is corruption that slipped past the CRC, or a writer bug, and is refused
// rather than loaded into a corpus that disagrees with itself.
func decodeSnapshot(raw []byte) (*snapState, error) {
	if len(raw) < snapHeaderLen+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("corpus: bad snapshot header")
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("corpus: snapshot crc mismatch")
	}
	p := body[len(snapMagic):]
	version := binary.LittleEndian.Uint32(p)
	if version != snapVersion {
		return nil, fmt.Errorf("corpus: unsupported snapshot version %d", version)
	}
	p = p[4:]
	st := &snapState{gen: binary.LittleEndian.Uint64(p)}
	p = p[8:]

	uv := func() (uint64, error) {
		v, k := uvarint(p)
		if k <= 0 {
			return 0, errors.New("corpus: bad snapshot varint")
		}
		p = p[k:]
		return v, nil
	}

	// Counts are bounded by the remaining bytes (every element costs at
	// least one byte) before they size an allocation: a corrupt count
	// that slipped past the CRC must fail decoding, not abort the
	// process with an absurd make().
	nTok, err := uv()
	if err != nil {
		return nil, err
	}
	if nTok > uint64(len(p)) {
		return nil, errors.New("corpus: snapshot token count exceeds payload")
	}
	tokens := make([]string, nTok)
	for i := range tokens {
		l, err := uv()
		if err != nil {
			return nil, err
		}
		if uint64(len(p)) < l {
			return nil, errors.New("corpus: truncated snapshot token")
		}
		tokens[i] = string(p[:l])
		p = p[l:]
	}
	if st.tc, err = token.NewCorpus(tokens); err != nil {
		return nil, fmt.Errorf("corpus: snapshot: %w", err)
	}
	nStr, err := uv()
	if err != nil {
		return nil, err
	}
	if nStr > uint64(len(p)) {
		return nil, errors.New("corpus: snapshot string count exceeds payload")
	}
	st.strs = make([][]token.TokenID, nStr)
	st.alive = make([]bool, nStr)
	for i := range st.strs {
		if len(p) == 0 {
			return nil, errors.New("corpus: truncated snapshot string")
		}
		flag := p[0]
		p = p[1:]
		if flag > 1 {
			return nil, fmt.Errorf("corpus: snapshot string flag 0x%02x", flag)
		}
		if flag == 0 {
			continue
		}
		st.alive[i] = true
		st.live++
		cnt, err := uv()
		if err != nil {
			return nil, err
		}
		if cnt > uint64(len(p)) {
			return nil, errors.New("corpus: snapshot member count exceeds payload")
		}
		ids := make([]token.TokenID, cnt)
		for j := range ids {
			v, err := uv()
			if err != nil {
				return nil, err
			}
			if v >= nTok {
				return nil, errors.New("corpus: snapshot token id out of range")
			}
			t := tokens[v]
			if t == "" || j > 0 && t < tokens[ids[j-1]] {
				return nil, fmt.Errorf("corpus: snapshot string %d is not a sorted token multiset", i)
			}
			ids[j] = token.TokenID(v)
		}
		st.strs[i] = ids
	}
	if len(p) != 0 {
		return nil, errors.New("corpus: trailing bytes in snapshot")
	}
	return st, nil
}
