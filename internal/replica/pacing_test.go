package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/namegen"
)

// corpusEngine is an Applier over a bare corpus, no matcher attached.
type corpusEngine struct{ c *corpus.Corpus }

func (e corpusEngine) LSN() uint64 { return e.c.LSN() }

func (e corpusEngine) Apply(ps [][]byte) error {
	_, err := e.c.ApplyShipped(ps)
	return err
}

func (e corpusEngine) Seal() error { return e.c.Sync() }

// shipPair is a primary corpus shipping to a standby corpus over HTTP,
// with the standby's apply requests that carry frames counted at its
// front.
type shipPair struct {
	prim, stby *corpus.Corpus
	shipper    *Primary
	applier    *Standby
	withFrames atomic.Int64
}

// newShipPair opens two empty corpora (no fsync: the cadence, not the
// disk, is under test), adds preload to the primary, and starts the
// standby tailing it; the primary ships batches of at most batch
// records. The ring holds the whole history, so the stream needs no
// install; one is a test failure.
func newShipPair(t *testing.T, batch int, preload []string) *shipPair {
	t.Helper()
	open := func() *corpus.Corpus {
		c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	p := &shipPair{prim: open(), stby: open()}
	for _, name := range preload {
		if _, err := p.prim.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	p.shipper = NewPrimary(p.prim, PrimaryOptions{
		BatchRecords:   batch,
		Heartbeat:      tortHeartbeat,
		RequestTimeout: 10 * time.Second,
		Backoff:        tortBackoff(),
	})
	t.Cleanup(p.shipper.Close)
	primSrv := httptest.NewServer(http.HandlerFunc(p.shipper.ServeRegister))
	t.Cleanup(primSrv.Close)
	stbyG := &gateHandler{}
	stbySrv := httptest.NewServer(stbyG)
	t.Cleanup(stbySrv.Close)
	noInstall := func(*corpus.CheckedSnapshot) (Applier, error) {
		t.Error("the standby was sent an install")
		return nil, errors.New("unexpected install")
	}
	p.applier = NewStandby(corpusEngine{p.stby}, noInstall, StandbyOptions{
		Primary:          primSrv.URL,
		Advertise:        stbySrv.URL,
		RegisterInterval: tortRegister,
		RequestTimeout:   10 * time.Second,
		Backoff:          tortBackoff(),
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/apply", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req applyRequest
		if json.Unmarshal(body, &req) == nil && len(req.Frames) > 0 {
			p.withFrames.Add(1)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		p.applier.ServeApply(w, r)
	})
	stbyG.swap(mux)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go p.applier.Run(ctx)
	return p
}

// follower returns the shipper's status of its one follower once it has
// acknowledged the primary's LSN.
func (p *shipPair) follower(t *testing.T) FollowerStatus {
	t.Helper()
	deadline := time.Now().Add(tortConvergence)
	for {
		st := p.shipper.Status()
		if len(st.Followers) == 1 && st.Followers[0].AckedLSN == st.LSN {
			return st.Followers[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby did not converge: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicationShipCoalescesSteadyCommits: single-record commits
// arriving about every 100µs, faster than one apply round trip apiece
// would be worth, ship as batches — each apply carries what committed
// in the last ship interval — and the standby still applies every
// record exactly once.
func TestReplicationShipCoalescesSteadyCommits(t *testing.T) {
	const adds, maxApplies, spacing = 400, 200, 100 * time.Microsecond
	p := newShipPair(t, 0, nil)
	// Registered and streaming before the commits start: a first
	// heartbeat has been acknowledged.
	waitFor(t, "standby registered", func() bool { return p.applier.Status().Heartbeats > 0 })

	start := time.Now()
	for i, name := range namegen.Generate(namegen.Config{Seed: 7, NumNames: adds}) {
		// Busy-wait, not sleep: a timer sleep can last a millisecond,
		// which would turn the trickle into bursts that coalesce
		// unpaced.
		for time.Since(start) < time.Duration(i)*spacing {
		}
		if _, err := p.prim.Add(name); err != nil {
			t.Fatal(err)
		}
	}
	took := time.Since(start)
	f := p.follower(t)

	if st := p.applier.Status(); st.AppliedRecords != adds || st.Resyncs != 0 {
		t.Fatalf("standby applied %d records with %d installs, want each of %d once and none", st.AppliedRecords, st.Resyncs, adds)
	}
	if err := logicalEqual(logicalOf(p.prim), logicalOf(p.stby)); err != nil {
		t.Fatalf("standby state diverged: %v", err)
	}
	t.Logf("%d records committed over %v shipped in %d applies", adds, took, p.withFrames.Load())
	if n := p.withFrames.Load(); n > maxApplies {
		t.Fatalf("%d apply requests for %d records a %v apart: the shipper did not coalesce them (want at most %d)", n, adds, spacing, maxApplies)
	}
	if f.ShippedRecords != adds || f.Batches != p.withFrames.Load() {
		t.Fatalf("follower status %+v, want %d shipped records in the %d applies the standby took", f, adds, p.withFrames.Load())
	}
}

// TestReplicationShipBacklogIsNotPaced: a backlog of full batches ships
// back to back. Four batches' worth of records, all still in the ring,
// reach a standby that registers after they committed in exactly four
// applies, and the shipper never holds one back.
func TestReplicationShipBacklogIsNotPaced(t *testing.T) {
	const batch, batches = 16, 4
	p := newShipPair(t, batch, namegen.Generate(namegen.Config{Seed: 8, NumNames: batch * batches}))
	f := p.follower(t)

	if n := p.withFrames.Load(); n != batches {
		t.Fatalf("%d apply requests for a backlog of %d full batches, want %d", n, batches, batches)
	}
	if n := p.shipper.paceWaits.Load(); n != 0 {
		t.Fatalf("the shipper held back %d ships of a backlog of full batches, want none", n)
	}
	if f.ShippedRecords != batch*batches || f.Batches != batches {
		t.Fatalf("follower status %+v, want %d records in %d batches", f, batch*batches, batches)
	}
	if err := logicalEqual(logicalOf(p.prim), logicalOf(p.stby)); err != nil {
		t.Fatalf("standby state diverged: %v", err)
	}
}
