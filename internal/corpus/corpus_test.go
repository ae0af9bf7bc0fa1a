package corpus

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/iofault"
	"repro/internal/namegen"
	"repro/internal/token"
)

// mustOpen opens a corpus or fails the test.
func mustOpen(t *testing.T, dir string, opt Options) *Corpus {
	t.Helper()
	c, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// logicalState flattens the corpus to comparable content: per id, the
// canonical token string (empty for tombstones) plus the alive flag.
func logicalState(c *Corpus) []string {
	v := c.View()
	out := make([]string, len(v.Alive))
	for i := range v.Alive {
		if v.Alive[i] {
			out[i] = v.TC.Strings[i].Key()
		} else {
			out[i] = "\x00dead"
		}
	}
	return out
}

func statesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAddDeleteReopen: the WAL alone (no snapshot) reproduces the exact
// logical state across a graceful close and across a crash (no Close).
func TestAddDeleteReopen(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 7, NumNames: 60})
	for _, graceful := range []bool{true, false} {
		dir := t.TempDir()
		c := mustOpen(t, dir, Options{})
		for i, n := range names {
			id, err := c.Add(n)
			if err != nil {
				t.Fatal(err)
			}
			if int(id) != i {
				t.Fatalf("Add id = %d, want %d", id, i)
			}
		}
		if err := c.Delete(3); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(41); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(3); err == nil {
			t.Fatal("double delete must fail")
		}
		want := logicalState(c)
		wantLive := c.Live()
		if graceful {
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			// A real crash releases the flock with the process; the
			// in-process simulation must do it explicitly.
			c.ReleaseLockForTest()
		}
		// Crash case: the file was fsynced per record (SyncEvery=1), so
		// abandoning the handle loses nothing.
		r := mustOpen(t, dir, Options{})
		defer r.Close()
		if !statesEqual(logicalState(r), want) {
			t.Fatalf("graceful=%v: reopened state differs", graceful)
		}
		if r.Live() != wantLive || r.Len() != len(names) {
			t.Fatalf("graceful=%v: Live=%d Len=%d, want %d/%d", graceful, r.Live(), r.Len(), wantLive, len(names))
		}
		if st := r.Stats(); st.WALReplayed != int64(len(names)+2) {
			t.Fatalf("graceful=%v: WALReplayed = %d, want %d", graceful, st.WALReplayed, len(names)+2)
		}
	}
}

// TestSnapshotAndWALTail: state = snapshot + WAL tail replay; Compact
// prunes older generations and preserves state.
func TestSnapshotAndWALTail(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 8, NumNames: 80})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names[:50] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(10); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Generation; got != 1 {
		t.Fatalf("generation after snapshot = %d", got)
	}
	// Tail records land in the new WAL generation.
	for _, n := range names[50:] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(60); err != nil {
		t.Fatal(err)
	}
	want := logicalState(c)
	c.Close()

	r := mustOpen(t, dir, Options{})
	if !statesEqual(logicalState(r), want) {
		t.Fatal("snapshot+tail reopen differs")
	}
	// Only the tail should have been replayed.
	if st := r.Stats(); st.WALReplayed != int64(len(names)-50+1) {
		t.Fatalf("WALReplayed = %d, want %d", st.WALReplayed, len(names)-50+1)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compact retains the newest prior generation as a corruption
	// fallback: two snapshots, two logs, nothing older.
	snaps, _ := listGens(iofault.OS, dir, snapPrefix, snapSuffix)
	wals, _ := listGens(iofault.OS, dir, walPrefix, walSuffix)
	if len(snaps) != 2 || len(wals) != 2 {
		t.Fatalf("after compact: %d snapshots, %d wals (want 2 + 2)", len(snaps), len(wals))
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	snaps, _ = listGens(iofault.OS, dir, snapPrefix, snapSuffix)
	wals, _ = listGens(iofault.OS, dir, walPrefix, walSuffix)
	if len(snaps) != 2 || len(wals) != 2 {
		t.Fatalf("after second compact: %d snapshots, %d wals (want 2 + 2)", len(snaps), len(wals))
	}
	want2 := logicalState(r)
	r.Close()
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if !statesEqual(logicalState(r2), want2) {
		t.Fatal("post-compact reopen differs")
	}
	// Compaction sheds tombstone content but preserves the id space.
	if r2.Len() != len(names) || r2.Live() != len(names)-2 {
		t.Fatalf("post-compact Len=%d Live=%d", r2.Len(), r2.Live())
	}
}

// corruptFile flips a byte in the middle of path.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFallsBack: a snapshot with a flipped byte fails its
// CRC; Open falls back to the previous generation AND replays the newer
// generation's WAL on top, so even records acknowledged after the
// corrupt snapshot survive.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 9, NumNames: 30})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names[:20] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Acknowledged after the snapshot: these live only in wal-1 and must
	// not be lost when snap-1 rots.
	for _, n := range names[20:] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(25); err != nil {
		t.Fatal(err)
	}
	want := logicalState(c)
	c.Close()

	corruptFile(t, snapPath(dir, 1))
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if !statesEqual(logicalState(r), want) {
		t.Fatal("fallback reopen lost acknowledged records")
	}
	// The full chain was replayed: wal-0 (20 adds) + wal-1 (10 adds + 1
	// delete), and appends continue on the newest generation.
	if st := r.Stats(); st.Generation != 1 || st.WALReplayed != int64(len(names)+1) {
		t.Fatalf("fallback recovery: generation %d, replayed %d", st.Generation, st.WALReplayed)
	}
}

// TestCorruptSnapshotAfterCompact: Compact retains one prior generation,
// so a rotted newest snapshot still recovers everything via the retained
// snapshot plus both WAL generations.
func TestCorruptSnapshotAfterCompact(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 12, NumNames: 40})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names[:15] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil { // gen 1
		t.Fatal(err)
	}
	for _, n := range names[15:30] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil { // gen 2, retains gen 1
		t.Fatal(err)
	}
	for _, n := range names[30:] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	want := logicalState(c)
	c.Close()

	corruptFile(t, snapPath(dir, 2))
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if !statesEqual(logicalState(r), want) {
		t.Fatal("compacted fallback lost acknowledged records")
	}
}

// TestCompactDropsCorruptFallback: after recovering from a corrupt
// newest snapshot, Compact must retain the *valid* older snapshot as the
// fallback (and remove the known-corrupt one) — so a second corruption
// still recovers everything.
func TestCompactDropsCorruptFallback(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 14, NumNames: 30})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names[:10] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(); err != nil { // snap-1 (stays valid)
		t.Fatal(err)
	}
	for _, n := range names[10:20] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(); err != nil { // snap-2 (will rot)
		t.Fatal(err)
	}
	c.Close()
	corruptFile(t, snapPath(dir, 2))

	r := mustOpen(t, dir, Options{}) // falls back to snap-1, replays wal-1+wal-2
	for _, n := range names[20:] {
		if _, err := r.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	want := logicalState(r)
	if err := r.Compact(); err != nil { // snap-3; fallback must be snap-1, not corrupt snap-2
		t.Fatal(err)
	}
	r.Close()
	if _, err := os.Stat(snapPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatal("compact retained the known-corrupt snapshot")
	}
	if _, err := os.Stat(snapPath(dir, 1)); err != nil {
		t.Fatal("compact removed the valid fallback snapshot")
	}
	// Second corruption: the fresh snapshot rots too; the retained valid
	// generation plus the WAL chain still reconstruct everything.
	corruptFile(t, snapPath(dir, 3))
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if !statesEqual(logicalState(r2), want) {
		t.Fatal("double-corruption recovery lost records")
	}
}

// TestDirtyFlag: Dirty tracks whether the newest snapshot is stale —
// set by adds, deletes and WAL replay, cleared by Snapshot/Compact (the
// periodic-checkpoint skip in tsjserve relies on it).
func TestDirtyFlag(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if c.Stats().Dirty {
		t.Fatal("fresh empty corpus must not be dirty")
	}
	if _, err := c.Add("a name"); err != nil {
		t.Fatal(err)
	}
	if !c.Stats().Dirty {
		t.Fatal("add must mark dirty")
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Dirty {
		t.Fatal("snapshot must clear dirty")
	}
	if err := c.Delete(0); err != nil {
		t.Fatal(err)
	}
	if !c.Stats().Dirty {
		t.Fatal("delete must mark dirty")
	}
	c.Close()
	// Replayed records mean the newest snapshot is stale too.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if !r.Stats().Dirty {
		t.Fatal("replayed WAL records must mark dirty")
	}
}

// TestAllSnapshotsCorruptFailsLoudly: when every snapshot is corrupt and
// the WAL chain cannot start at generation zero, Open must error rather
// than present total data loss as a clean start.
func TestAllSnapshotsCorruptFailsLoudly(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 13, NumNames: 20})
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil { // gen 1: wal-0 is removed later
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil { // gen 2: wal-0 gone, snaps {1, 2}
		t.Fatal(err)
	}
	c.Close()
	corruptFile(t, snapPath(dir, 1))
	corruptFile(t, snapPath(dir, 2))
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open must fail when no snapshot is loadable and the wal chain is incomplete")
	}
}

// TestViewIsolation: a captured view is untouched by later adds and
// deletes.
func TestViewIsolation(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 11, NumNames: 120})
	c := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer c.Close()
	for _, n := range names[:40] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	v := c.View()
	nStr, nTok := len(v.Alive), len(v.TC.Tokens)
	freq0 := append([]int32(nil), v.TC.Freq...)
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	for _, n := range names[40:] {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if len(v.Alive) != nStr || len(v.TC.Tokens) != nTok || len(v.TC.Strings) != nStr {
		t.Fatal("view grew after capture")
	}
	if !v.Alive[5] || v.Live != nStr {
		t.Fatal("later delete leaked into the view")
	}
	for tid, f := range freq0 {
		if v.TC.Freq[tid] != f {
			t.Fatalf("later mutations moved the view's frequency of token %d: %d -> %d", tid, f, v.TC.Freq[tid])
		}
	}
}

// TestTokenSpaceSurvivesRestart: a view's token space — token ids,
// live frequencies and alive strings' member lists — is the same before
// Close and after reopening, from the WAL alone and from a snapshot plus
// a WAL tail. The history holds tokens whose only string was deleted
// (before and after the snapshot: each stays at its id, counted 0) and
// empty strings. Ids are first-seen, not lexicographic, so a reload that
// re-sorted the token table would show here. A tombstone's own member
// list is not compared: a snapshot sheds it with the string's content.
func TestTokenSpaceSurvivesRestart(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		dir := t.TempDir()
		c := mustOpen(t, dir, Options{DisableSync: true})
		add := func(s string) token.StringID {
			t.Helper()
			id, err := c.Add(s)
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		del := func(id token.StringID) {
			t.Helper()
			if err := c.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		add("zeta alpha")
		del(add("lonely beta"))
		add("")
		add("alpha alpha gamma")
		if snapshot {
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		add("delta, alpha")
		add("...")
		del(add("solo"))
		add("beta epsilon")
		want := c.View()
		c.Close()

		c = mustOpen(t, dir, Options{DisableSync: true})
		got := c.View()
		st := c.Stats()
		c.Close()
		if snapshot && (st.Generation != 1 || st.WALReplayed != 5) || !snapshot && st.WALReplayed != 10 {
			t.Fatalf("snapshot %v: reopened at generation %d with %d records replayed", snapshot, st.Generation, st.WALReplayed)
		}
		if !slices.Equal(got.TC.Tokens, want.TC.Tokens) || !slices.Equal(got.TC.Freq, want.TC.Freq) {
			t.Fatalf("snapshot %v: tokens %q freq %v after reopen, want %q freq %v", snapshot, got.TC.Tokens, got.TC.Freq, want.TC.Tokens, want.TC.Freq)
		}
		if !slices.Equal(got.Alive, want.Alive) {
			t.Fatalf("snapshot %v: alive %v after reopen, want %v", snapshot, got.Alive, want.Alive)
		}
		for sid, alive := range want.Alive {
			if alive && !slices.Equal(got.TC.Members[sid], want.TC.Members[sid]) {
				t.Fatalf("snapshot %v: string %d members %v after reopen, want %v", snapshot, sid, got.TC.Members[sid], want.TC.Members[sid])
			}
		}
		for _, tok := range []string{"lonely", "solo"} {
			if id, ok := got.TC.TokenIDOf(tok); !ok || got.TC.Freq[id] != 0 {
				t.Fatalf("snapshot %v: deleted-only token %q lost or counted (id %d, present %v)", snapshot, tok, id, ok)
			}
		}
		if slices.IsSorted(got.TC.Tokens) || got.TC.Strings[2].Count() != 0 || got.TC.Strings[5].Count() != 0 {
			t.Fatalf("snapshot %v: tokens %q are sorted, or an empty string is not", snapshot, got.TC.Tokens)
		}
	}
}

// TestEmptyAndDuplicateStrings: token-less strings and exact duplicates
// are first-class corpus citizens.
func TestEmptyAndDuplicateStrings(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	id0, err := c.Add("...")
	if err != nil || id0 != 0 {
		t.Fatalf("empty add: %v %v", id0, err)
	}
	if _, err := c.Add("barak obama"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("barak obama"); err != nil {
		t.Fatal(err)
	}
	want := logicalState(c)
	c.Close()
	r := mustOpen(t, c.dir, Options{})
	defer r.Close()
	if !statesEqual(logicalState(r), want) {
		t.Fatal("reopen differs")
	}
	if r.View().TC.Strings[0].Count() != 0 {
		t.Fatal("empty string not preserved")
	}
}

// TestStaleTempCleanup: a leftover snapshot temp file from a crashed
// Snapshot call is removed at Open and never mistaken for a snapshot.
func TestStaleTempCleanup(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	if _, err := c.Add("a b"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	tmp := filepath.Join(dir, "snap-zzz.tmp")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
}
