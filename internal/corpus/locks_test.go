package corpus

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iofault"
)

// parkedSyncFS is the real filesystem with one twist: while armed, the
// next fsync of a WAL file parks until the test releases it.
type parkedSyncFS struct {
	iofault.FS
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkedSyncFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := p.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), walPrefix) {
		return f, err
	}
	return &parkedFile{File: f, p: p}, nil
}

type parkedFile struct {
	iofault.File
	p *parkedSyncFS
}

func (f *parkedFile) Sync() error {
	if f.p.armed.CompareAndSwap(true, false) {
		f.p.parked <- struct{}{}
		<-f.p.release
	}
	return f.File.Sync()
}

// within fails the test unless fn returns within a second.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s waited on a commit parked in its fsync", what)
	}
}

// TestReadersDoNotWaitOnFsync: while a commit is parked in its WAL
// fsync, holding the log lock, every reader returns, and none sees the
// record: the LSN, the view and the ship ring expose only installed
// records. A Snapshot waits for the commit instead of interleaving with
// it, so the snapshot it writes holds the record.
func TestReadersDoNotWaitOnFsync(t *testing.T) {
	fs := &parkedSyncFS{FS: iofault.OS, parked: make(chan struct{}), release: make(chan struct{})}
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{FS: fs})
	if _, err := c.Add("first name"); err != nil {
		t.Fatal(err)
	}
	lsn := c.LSN()

	fs.armed.Store(true)
	committed := make(chan error, 1)
	go func() {
		_, err := c.Add("second name")
		committed <- err
	}()
	<-fs.parked
	snapshotted := make(chan error, 1)
	go func() { snapshotted <- c.Snapshot() }()

	within(t, "View", func() {
		if v := c.View(); len(v.Alive) != 1 {
			t.Errorf("View holds %d strings mid-commit, want 1", len(v.Alive))
		}
	})
	within(t, "Stats", func() {
		if st := c.Stats(); st.Strings != 1 || st.Degraded {
			t.Errorf("Stats mid-commit: %+v", st)
		}
	})
	within(t, "LSN", func() {
		if got := c.LSN(); got != lsn {
			t.Errorf("LSN %d mid-commit, want %d", got, lsn)
		}
	})
	within(t, "ShipFrom", func() {
		if recs, err := c.ShipFrom(lsn, 0, 0); err != nil || len(recs) != 0 {
			t.Errorf("ShipFrom(%d) mid-commit = %d records, %v; want none", lsn, len(recs), err)
		}
	})
	within(t, "Degraded", func() {
		if err := c.Degraded(); err != nil {
			t.Error(err)
		}
	})
	within(t, "Len and ShipNotify", func() { _, _ = c.Len(), c.ShipNotify() })
	select {
	case err := <-snapshotted:
		t.Fatalf("Snapshot returned (%v) while a commit was parked in its fsync", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(fs.release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := <-snapshotted; err != nil {
		t.Fatal(err)
	}
	if recs, err := c.ShipFrom(lsn, 0, 0); err != nil || len(recs) != 1 || c.LSN() != lsn+1 {
		t.Fatalf("after the commit: ShipFrom %d records, %v; LSN %d", len(recs), err, c.LSN())
	}
	// Only the snapshot's generation is replayed past: had the snapshot
	// been taken mid-commit, the record would sit in the older WAL only.
	want := logicalState(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := logicalState(r); !statesEqual(got, want) || r.Stats().WALReplayed != 0 {
		t.Fatalf("reopened state %q (%d WAL records replayed), want %q from the snapshot", got, r.Stats().WALReplayed, want)
	}
}
