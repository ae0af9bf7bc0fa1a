package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/iofault"
	"repro/internal/namegen"
	"repro/internal/token"
)

// applyPayloads commits shipped payloads as one batch, exactly as a
// standby applier does.
func applyPayloads(t *testing.T, c *Corpus, payloads [][]byte) {
	t.Helper()
	if recs, err := c.ApplyShipped(payloads); err != nil || len(recs) != len(payloads) {
		t.Fatalf("apply %d shipped payloads: %d committed, %v", len(payloads), len(recs), err)
	}
}

// TestLSNDerivation: the LSN counts every committed mutation, and —
// being derived from logical state — survives restart, snapshot and
// compaction unchanged.
func TestLSNDerivation(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{DisableSync: true})
	names := namegen.Generate(namegen.Config{Seed: 11, NumNames: 20})
	var want uint64
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
		want++
		if got := c.LSN(); got != want {
			t.Fatalf("LSN after add = %d, want %d", got, want)
		}
	}
	for sid := 0; sid < 5; sid++ {
		if err := c.Delete(token.StringID(sid)); err != nil {
			t.Fatal(err)
		}
		want++
	}
	if got := c.LSN(); got != want {
		t.Fatalf("LSN after deletes = %d, want %d", got, want)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := c.LSN(); got != want {
		t.Fatalf("LSN after snapshot = %d, want %d", got, want)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := c.LSN(); got != want {
		t.Fatalf("LSN after compact = %d, want %d", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, Options{DisableSync: true})
	defer c2.Close()
	if got := c2.LSN(); got != want {
		t.Fatalf("LSN after reopen = %d, want %d", got, want)
	}
}

// TestShipFromWindow: the ring serves exactly the retained tail,
// reports older offsets as ErrShipBehind and future ones as
// ErrShipAhead, and a follower applying from a served offset converges
// to the identical logical state.
func TestShipFromWindow(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{DisableSync: true, ShipBufferRecords: 4})
	defer c.Close()
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 10})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	lsn := c.LSN()
	if _, err := c.ShipFrom(0, 100, 0); !errors.Is(err, ErrShipBehind) {
		t.Fatalf("ShipFrom(0) with evicted head: err = %v, want ErrShipBehind", err)
	}
	if _, err := c.ShipFrom(lsn+1, 100, 0); !errors.Is(err, ErrShipAhead) {
		t.Fatalf("ShipFrom(lsn+1): err = %v, want ErrShipAhead", err)
	}
	got, err := c.ShipFrom(lsn, 100, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("ShipFrom(lsn) = %d records, %v; want caught-up", len(got), err)
	}
	got, err = c.ShipFrom(lsn-4, 100, 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("ShipFrom(lsn-4) = %d records, %v; want the 4 retained", len(got), err)
	}
	// maxRecords pagination: two pages cover the window.
	page, err := c.ShipFrom(lsn-4, 3, 0)
	if err != nil || len(page) != 3 {
		t.Fatalf("paged ShipFrom = %d records, %v; want 3", len(page), err)
	}

	// A follower synced up to lsn-4 (seeded with a snapshot of a corpus
	// at that point would be equivalent; here replay the first 6 adds)
	// converges by applying the window.
	f := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer f.Close()
	for _, n := range names[:6] {
		if _, err := f.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if f.LSN() != lsn-4 {
		t.Fatalf("follower seed LSN = %d, want %d", f.LSN(), lsn-4)
	}
	applyPayloads(t, f, got)
	if f.LSN() != c.LSN() {
		t.Fatalf("follower LSN = %d, want %d", f.LSN(), c.LSN())
	}
	if !statesEqual(logicalState(f), logicalState(c)) {
		t.Fatal("follower state diverged after applying shipped window")
	}
}

// TestShipBatchAndDeleteRecords: group-committed batch adds and deletes
// each land in the ring as individual records, in apply order.
func TestShipBatchAndDeleteRecords(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer c.Close()
	tss := []token.TokenizedString{
		token.New([]string{"a", "b"}),
		token.New([]string{"b", "c"}),
		token.New([]string{"c", "d"}),
	}
	if _, err := c.AddTokenizedBatch(tss); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	got, err := c.ShipFrom(0, 100, 0)
	if err != nil || len(got) != 4 {
		t.Fatalf("ShipFrom(0) = %d records, %v; want 4", len(got), err)
	}
	f := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer f.Close()
	applyPayloads(t, f, got)
	if !statesEqual(logicalState(f), logicalState(c)) {
		t.Fatal("batch+delete replication diverged")
	}
}

// TestShipNotify: the notify channel is closed by the next commit.
func TestShipNotify(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer c.Close()
	ch := c.ShipNotify()
	select {
	case <-ch:
		t.Fatal("notify fired before any commit")
	default:
	}
	if _, err := c.Add("hello world"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("notify did not fire on commit")
	}
}

// viewsEqual reports how view f differs from view c, the primary's:
// the token table with its ids, the live frequencies, the alive mask, and
// each live string's tokens and members. A tombstone's content is not
// compared: a snapshot does not keep it.
func viewsEqual(f, c *View) error {
	switch {
	case !slices.Equal(f.TC.Tokens, c.TC.Tokens):
		return fmt.Errorf("tokens %q, want %q", f.TC.Tokens, c.TC.Tokens)
	case !slices.Equal(f.TC.Freq, c.TC.Freq):
		return fmt.Errorf("freq %v, want %v", f.TC.Freq, c.TC.Freq)
	case !slices.Equal(f.Alive, c.Alive) || f.Live != c.Live:
		return fmt.Errorf("alive %v (%d live), want %v (%d live)", f.Alive, f.Live, c.Alive, c.Live)
	}
	for sid, alive := range c.Alive {
		if alive && (f.TC.Strings[sid].Key() != c.TC.Strings[sid].Key() || !slices.Equal(f.TC.Members[sid], c.TC.Members[sid])) {
			return fmt.Errorf("string %d: %q members %v, want %q members %v", sid,
				f.TC.Strings[sid].Key(), f.TC.Members[sid], c.TC.Strings[sid].Key(), c.TC.Members[sid])
		}
	}
	return nil
}

// TestInstallEquivalence: a snapshot from SnapshotBytes, installed into
// an empty directory, opens as the primary's exact view — the token
// table with its ids, the live frequencies, the members, the alive mask
// — at the primary's LSN, tombstones included, and the follower then
// tails incrementally from that LSN.
func TestInstallEquivalence(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer c.Close()
	names := namegen.Generate(namegen.Config{Seed: 5, NumNames: 30})
	for _, n := range names {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, sid := range []int{2, 7, 29, 11} {
		if err := c.Delete(token.StringID(sid)); err != nil {
			t.Fatal(err)
		}
	}

	raw, lsn := c.SnapshotBytes()
	if lsn != c.LSN() {
		t.Fatalf("snapshot LSN = %d, corpus LSN = %d", lsn, c.LSN())
	}
	snap, err := CheckSnapshot(raw)
	if err != nil || snap.LSN() != lsn {
		t.Fatalf("CheckSnapshot = %v; want lsn %d", err, lsn)
	}
	dir := t.TempDir()
	if got, err := Install(dir, snap, Options{DisableSync: true}); err != nil || got != lsn {
		t.Fatalf("Install = %d, %v; want %d", got, err, lsn)
	}
	f := mustOpen(t, dir, Options{DisableSync: true})
	defer f.Close()
	if f.LSN() != lsn {
		t.Fatalf("follower LSN after install = %d, want %d", f.LSN(), lsn)
	}
	if err := viewsEqual(f.View(), c.View()); err != nil {
		t.Fatalf("installed view: %v", err)
	}

	// Incremental tail from the install point.
	if _, err := c.Add("fresh arrival after install"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(0); err != nil {
		t.Fatal(err)
	}
	tail, err := c.ShipFrom(lsn, 100, 0)
	if err != nil || len(tail) != 2 {
		t.Fatalf("tail ShipFrom = %d records, %v; want 2", len(tail), err)
	}
	applyPayloads(t, f, tail)
	if err := viewsEqual(f.View(), c.View()); err != nil {
		t.Fatalf("view after the tail: %v", err)
	}
	if f.LSN() != c.LSN() {
		t.Fatalf("follower LSN after the tail = %d, want %d", f.LSN(), c.LSN())
	}
}

// TestCheckSnapshotRejectsBadBodies: CheckSnapshot refuses every body a
// restart would refuse — empty, truncated, bit-flipped, and each
// one-field departure of rejectedSnapBodies — while the body they depart
// from passes. Install takes only what CheckSnapshot returned, so it
// never decodes; handed a snapshot nobody checked, it fails and touches
// nothing.
func TestCheckSnapshotRejectsBadBodies(t *testing.T) {
	good := withCRC(validSnapBody())
	if snap, err := CheckSnapshot(good); err != nil || snap.LSN() != 3 {
		t.Fatalf("valid body: %v, %v; want lsn 3", snap, err)
	}
	flipped := slices.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	bad := map[string][]byte{"empty": nil, "truncated": good[:len(good)/2], "bit-flipped": flipped}
	for name, body := range rejectedSnapBodies() {
		bad[name] = withCRC(body)
	}
	for name, raw := range bad {
		if snap, err := CheckSnapshot(raw); err == nil || snap != nil {
			t.Errorf("%s: CheckSnapshot = %v, %v; want a refusal", name, snap, err)
		}
	}
	dir := filepath.Join(t.TempDir(), "follower")
	for _, snap := range []*CheckedSnapshot{nil, {}} {
		if _, err := Install(dir, snap, Options{DisableSync: true}); err == nil {
			t.Fatalf("Install(%v) succeeded", snap)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused install touched the directory: %v", err)
	}
}

// TestSnapshotBytesDuringCommits: SnapshotBytes encodes outside the
// corpus lock while adds and deletes commit, and every snapshot it
// returns decodes to exactly the LSN it reports, never behind an earlier
// one.
func TestSnapshotBytesDuringCommits(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{DisableSync: true})
	defer c.Close()
	names := namegen.Generate(namegen.Config{Seed: 9, NumNames: 400})
	done := make(chan error)
	go func() {
		for i, n := range names {
			if _, err := c.Add(n); err != nil {
				done <- err
				return
			}
			if i%5 == 4 {
				if err := c.Delete(token.StringID(i - 2)); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	var last uint64
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		raw, lsn := c.SnapshotBytes()
		if snap, err := CheckSnapshot(raw); err != nil || snap.LSN() != lsn || lsn < last {
			t.Fatalf("snapshot at lsn %d (previous %d) decodes to %v, %v", lsn, last, snap, err)
		}
		last = lsn
	}
	if last != c.LSN() {
		t.Fatalf("last snapshot at lsn %d, corpus at %d", last, c.LSN())
	}
}

// shippedBatch is a batch over a corpus holding ids 0..2 with 1 dead:
// two adds (ids 3 and 4), a delete of id 3 (added earlier in the same
// batch), then bad, then one more add. bad is the record at position 3.
func shippedBatch(bad []byte) [][]byte {
	return [][]byte{
		encodeAdd(nil, token.New([]string{"ada", "lovelace"})),
		encodeAdd(nil, token.New([]string{"alan", "turing"})),
		encodeDelete(nil, 3),
		bad,
		encodeAdd(nil, token.New([]string{"grace", "hopper"})),
	}
}

// seedShipTarget opens a corpus at dir holding ids 0..2 with id 1 dead.
func seedShipTarget(t *testing.T, dir string, opt Options) *Corpus {
	t.Helper()
	c := mustOpen(t, dir, opt)
	for _, n := range []string{"barak obama", "obamma boraak", "john smith"} {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestApplyShippedPrefix: a shipped batch whose record k is invalid —
// undecodable, a delete of a dead id, a delete of an id the batch
// already deleted, a delete past the id space — commits exactly records
// [0, k) and advances the LSN by k; a delete of an id added earlier in
// the same batch is valid; and a reopen replays the committed state
// exactly.
func TestApplyShippedPrefix(t *testing.T) {
	const k = 3
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"undecodable", []byte{0x7f}},
		{"delete-dead", encodeDelete(nil, 1)},
		{"delete-twice-in-batch", encodeDelete(nil, 3)},
		{"delete-unknown", encodeDelete(nil, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := seedShipTarget(t, dir, Options{})
			before := c.LSN()
			batch := shippedBatch(tc.bad)
			recs, err := c.ApplyShipped(batch)
			if err == nil {
				t.Fatal("a batch with an invalid record applied without error")
			}
			if len(recs) != k || c.LSN() != before+k {
				t.Fatalf("committed %d records, LSN %d → %d; want %d records, LSN +%d", len(recs), before, c.LSN(), k, k)
			}
			if !recs[2].Delete || recs[2].SID != 3 || recs[1].Delete || recs[1].TS.Key() != "alan\x1fturing" {
				t.Fatalf("committed records out of order: %+v", recs)
			}

			// The same prefix through the local mutation paths.
			ref := seedShipTarget(t, t.TempDir(), Options{DisableSync: true})
			defer ref.Close()
			if _, err := ref.AddTokenizedBatch([]token.TokenizedString{recs[0].TS, recs[1].TS}); err != nil {
				t.Fatal(err)
			}
			if err := ref.Delete(3); err != nil {
				t.Fatal(err)
			}
			want := logicalState(ref)
			if !statesEqual(logicalState(c), want) {
				t.Fatalf("state after the prefix = %q, want %q", logicalState(c), want)
			}
			shipped, err := c.ShipFrom(before, 100, 0)
			if err != nil || len(shipped) != k {
				t.Fatalf("ship ring holds %d records past the batch start, %v; want %d", len(shipped), err, k)
			}
			for i, p := range shipped {
				if !bytes.Equal(p, batch[i]) {
					t.Fatalf("shipped record %d = %x, want the verbatim %x", i, p, batch[i])
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, dir, Options{})
			defer r.Close()
			if r.LSN() != before+k || !statesEqual(logicalState(r), want) {
				t.Fatalf("reopen: LSN %d, state %q; want LSN %d, state %q", r.LSN(), logicalState(r), before+k, want)
			}
		})
	}
}

// TestApplyShippedWALFault: a WAL write failing mid-batch rolls the
// whole batch back and leaves the corpus healthy; an fsync failing at the
// end of the commit rolls it back and degrades the corpus, as for any
// other commit. Either way the LSN and state are unchanged, and a reopen
// replays exactly the state before the batch.
func TestApplyShippedWALFault(t *testing.T) {
	for _, tc := range []struct {
		name     string
		plan     iofault.Plan
		degraded bool
	}{
		{"write", iofault.Plan{Only: iofault.OpWrite, FailAt: 1}, false},
		{"short-write", iofault.Plan{Only: iofault.OpWrite, FailAt: 2, ShortWrite: 5}, false},
		{"fsync", iofault.Plan{Only: iofault.OpSync, FailAt: 0}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := iofault.NewInjector(iofault.OS, iofault.Disarmed())
			c := seedShipTarget(t, dir, Options{FS: inj})
			before, want := c.LSN(), logicalState(c)
			inj.SetPlan(tc.plan)
			recs, err := c.ApplyShipped(shippedBatch(encodeAdd(nil, token.New([]string{"x"}))))
			if err == nil || len(recs) != 0 {
				t.Fatalf("faulted batch: %d committed, err %v; want 0 and an error", len(recs), err)
			}
			if inj.Faults() != 1 {
				t.Fatalf("fault fired %d times, want 1", inj.Faults())
			}
			if c.LSN() != before || !statesEqual(logicalState(c), want) {
				t.Fatalf("faulted batch moved the corpus: LSN %d → %d", before, c.LSN())
			}
			if got := c.Degraded() != nil; got != tc.degraded || errors.Is(err, ErrDegraded) != tc.degraded {
				t.Fatalf("degraded = %v (err %v), want %v", got, err, tc.degraded)
			}
			if got, err := c.ShipFrom(before, 100, 0); err != nil || len(got) != 0 {
				t.Fatalf("faulted batch reached the ship ring: %d records, %v", len(got), err)
			}
			c.Close()
			r := mustOpen(t, dir, Options{})
			defer r.Close()
			if r.LSN() != before || !statesEqual(logicalState(r), want) {
				t.Fatalf("reopen after a faulted batch: LSN %d, want %d", r.LSN(), before)
			}
		})
	}
}
