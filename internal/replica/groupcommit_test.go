package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/iofault"
	"repro/internal/namegen"
	"repro/internal/stream"
)

// walSyncCounter is an iofault.FS over the real filesystem that counts
// the fsyncs of WAL files opened through it and makes each one take at
// least fsyncLatency, as on a disk whose fsync costs that much.
type walSyncCounter struct {
	iofault.FS
	syncs atomic.Int64
}

// fsyncLatency is the simulated WAL fsync cost: the regime a standby
// that fsyncs per record cannot keep up in, whatever the host's disk.
const fsyncLatency = 4 * time.Millisecond

func (c *walSyncCounter) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return &countedFile{File: f, syncs: &c.syncs}, nil
}

type countedFile struct {
	iofault.File
	syncs *atomic.Int64
}

func (f *countedFile) Sync() error {
	f.syncs.Add(1)
	time.Sleep(fsyncLatency)
	return f.File.Sync()
}

// openCountedNode opens a write-through (SyncEvery 1) node over fs.
func openCountedNode(t *testing.T, dir string, fs iofault.FS, ring int) *repNode {
	t.Helper()
	c, err := corpus.Open(dir, corpus.Options{SyncEvery: 1, FS: fs, ShipBufferRecords: ring})
	if err != nil {
		t.Fatal(err)
	}
	m, err := stream.NewShardedFromCorpus(tortStreamOptions(), 2, c)
	if err != nil {
		t.Fatal(err)
	}
	return &repNode{dir: dir, c: c, m: m}
}

// TestReplicationStandbyGroupCommit: a write-through standby (SyncEvery
// 1) behind a write-through primary that commits batches back to back
// applies each shipped batch as one commit — at most one WAL fsync per
// apply request that carries frames, where one fsync per record would
// let it fall behind — and, with a 64-record ship ring, keeps pace:
// after its first catch-up it converges to the primary's LSN and state
// without another install. Both nodes run over walSyncCounter, so fsyncs
// are counted through the corpus's filesystem seam and cost the same
// simulated latency whatever disk (or tmpfs) the host has.
//
// The primary's batches are 8 records, an eighth of the ring. The
// standby's round trip costs more than the primary's commit (HTTP plus
// the standby's own simulated fsync of the applied batch; ShipFrom reads
// under the state lock alone and does not wait out the primary's fsync),
// so it keeps pace by taking several commits per request; the ring must
// hold those plus a scheduling hiccup's worth.
func TestReplicationStandbyGroupCommit(t *testing.T) {
	const ring, batch, batches = 64, 8, 64
	names := namegen.Generate(namegen.Config{Seed: 42, NumNames: 100 + batch*batches})
	prim := openCountedNode(t, t.TempDir(), &walSyncCounter{FS: iofault.OS}, ring)
	defer prim.shutdown()
	// History beyond the ring: the standby's first catch-up is a
	// snapshot install.
	if _, _, err := prim.m.AddAllDurable(names[:100]); err != nil {
		t.Fatal(err)
	}

	fs := &walSyncCounter{FS: iofault.OS}
	stby := openCountedNode(t, t.TempDir(), fs, ring)
	defer stby.shutdown()
	install := func(snap *corpus.CheckedSnapshot) (Applier, error) {
		stby.mu.Lock()
		defer stby.mu.Unlock()
		stby.m.Close()
		stby.c.Close()
		if _, err := corpus.Install(stby.dir, snap, corpus.Options{FS: fs}); err != nil {
			return nil, err
		}
		c, err := corpus.Open(stby.dir, corpus.Options{SyncEvery: 1, FS: fs, ShipBufferRecords: ring})
		if err != nil {
			return nil, err
		}
		m, err := stream.NewShardedFromCorpus(tortStreamOptions(), 2, c)
		if err != nil {
			c.Close()
			return nil, err
		}
		stby.c, stby.m = c, m
		return nodeEngine{stby}, nil
	}

	shipper := NewPrimary(prim.c, PrimaryOptions{
		Heartbeat:      tortHeartbeat,
		RequestTimeout: 10 * time.Second,
		Backoff:        tortBackoff(),
	})
	defer shipper.Close()
	primSrv := httptest.NewServer(http.HandlerFunc(shipper.ServeRegister))
	defer primSrv.Close()
	stbyG := &gateHandler{}
	stbySrv := httptest.NewServer(stbyG)
	defer stbySrv.Close()
	applier := NewStandby(nodeEngine{stby}, install, StandbyOptions{
		Primary:          primSrv.URL,
		Advertise:        stbySrv.URL,
		RegisterInterval: tortRegister,
		RequestTimeout:   10 * time.Second,
		Backoff:          tortBackoff(),
	})
	var withFrames atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/install", applier.ServeInstall)
	mux.HandleFunc("/replication/apply", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req applyRequest
		if json.Unmarshal(body, &req) == nil && len(req.Frames) > 0 {
			withFrames.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		applier.ServeApply(w, r)
	})
	stbyG.swap(mux)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go applier.Run(ctx)

	converge := func() {
		t.Helper()
		deadline := time.Now().Add(tortConvergence)
		for time.Now().Before(deadline) {
			if st := applier.Status(); !st.Syncing && st.LSN == prim.c.LSN() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("standby did not converge: %+v, primary lsn %d", applier.Status(), prim.c.LSN())
	}
	converge()
	resyncs := applier.Status().Resyncs
	if resyncs != 1 {
		t.Fatalf("first catch-up took %d resyncs, want the 1 bootstrap", resyncs)
	}
	fsyncs0, requests0, applied0 := fs.syncs.Load(), withFrames.Load(), applier.Status().AppliedRecords

	// Saturate: batches back to back, with a delete in every fourth.
	for i := 0; i < batches; i++ {
		if _, _, err := prim.m.AddAllDurable(names[100+i*batch : 100+(i+1)*batch]); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 {
			if err := prim.m.Delete(100 + i*batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	converge()

	st := applier.Status()
	if st.Resyncs != resyncs {
		t.Fatalf("standby was re-bootstrapped %d times after its first catch-up", st.Resyncs-resyncs)
	}
	fsyncs, requests, records := fs.syncs.Load()-fsyncs0, withFrames.Load()-requests0, st.AppliedRecords-applied0
	if records != batches*batch+batches/4 {
		t.Fatalf("standby applied %d records, want %d", records, batches*batch+batches/4)
	}
	if requests >= records {
		t.Fatalf("%d apply requests for %d records: the shipper sent no multi-record batch", requests, records)
	}
	if fsyncs > requests {
		t.Fatalf("standby did %d WAL fsyncs for %d apply requests carrying %d records; want at most one per request", fsyncs, requests, records)
	}
	if err := logicalEqual(logicalOf(prim.c), logicalOf(stby.corpus())); err != nil {
		t.Fatalf("standby state diverged: %v", err)
	}
}
