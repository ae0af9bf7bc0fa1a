// Replication torture harness: a primary and a warm standby — each a
// real durable corpus with a query-serving sharded matcher on top —
// replicate a scripted add/delete/batch workload while a network fault
// is injected at every primary round trip of a reference run in turn.
// The flavors mirror the distinct failure points of one shipped frame:
//
//   - drop: the connection dies before the batch reaches the standby;
//   - torn: the standby applied the batch but the ack is cut mid-body
//     (the retry-duplicate case gap detection must absorb);
//   - delay: the ack stalls past the client deadline — lost-ack again,
//     reached through the timeout path;
//   - standby-crash: the batch arrives and the standby's disk dies mid-
//     apply (simulated power cut in its iofault injector); the harness
//     restarts it from its own directory and it must re-join;
//   - primary-crash: the primary process dies mid-ship (sticky network
//     crash); the harness reopens its corpus — empty ship ring — and
//     the standby must re-register and re-converge.
//
// After every faulted run the pair must re-converge to the identical
// logical corpus — same id space, same tombstone mask, same content; no
// duplicated, lost, or resurrected records — and promoting the caught-
// up standby must yield a primary whose self-join results and query
// answers are identical to the original's.
package replica

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/corpus"
	"repro/internal/httpx"
	"repro/internal/iofault"
	"repro/internal/namegen"
	"repro/internal/stream"
	"repro/internal/tsj"
)

// Small timings so a full sweep stays fast under -race; every wait that
// matters polls with a generous deadline instead of trusting these.
const (
	tortHeartbeat   = 20 * time.Millisecond
	tortRegister    = 60 * time.Millisecond
	tortReqTimeout  = 150 * time.Millisecond
	tortDelayStall  = 600 * time.Millisecond
	tortBatch       = 4
	tortShipRing    = 8
	tortConvergence = 20 * time.Second
)

func tortBackoff() backoff.Policy {
	return backoff.Policy{Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond, Jitter: 0.25}
}

func tortStreamOptions() stream.Options {
	return stream.Options{Threshold: 0.25}
}

// gateHandler is an atomically swappable http.Handler: swap blocks
// until in-flight requests drain, so a "restarted" node never races its
// predecessor's handlers.
type gateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (g *gateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.h == nil {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	g.h.ServeHTTP(w, r)
}

func (g *gateHandler) swap(h http.Handler) {
	g.mu.Lock()
	g.h = h
	g.mu.Unlock()
}

// repNode is one harness node: a durable corpus behind an iofault
// injector with a warm sharded matcher serving it.
type repNode struct {
	dir string

	mu sync.Mutex
	fs *iofault.Injector
	c  *corpus.Corpus
	m  *stream.ShardedMatcher
}

func openNode(t *testing.T, dir string) *repNode {
	t.Helper()
	n := &repNode{dir: dir}
	if err := n.open(); err != nil {
		t.Fatalf("open node %s: %v", dir, err)
	}
	return n
}

// open (re)builds the corpus and matcher from the node's directory with
// a fresh, disarmed disk injector.
func (n *repNode) open() error {
	fs := iofault.NewInjector(iofault.OS, iofault.Disarmed())
	c, err := corpus.Open(n.dir, corpus.Options{SyncEvery: 1, FS: fs, ShipBufferRecords: tortShipRing})
	if err != nil {
		return err
	}
	m, err := stream.NewShardedFromCorpus(tortStreamOptions(), 2, c)
	if err != nil {
		c.Close()
		return err
	}
	n.mu.Lock()
	n.fs, n.c, n.m = fs, c, m
	n.mu.Unlock()
	return nil
}

func (n *repNode) corpus() *corpus.Corpus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.c
}

func (n *repNode) matcher() *stream.ShardedMatcher {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.m
}

func (n *repNode) injector() *iofault.Injector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fs
}

// crash abandons the node's handles as a dying process would: no flush,
// no close, just the advisory lock released so a reopen can proceed.
func (n *repNode) crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m.Close()
	n.c.ReleaseLockForTest()
}

// install is the node's install callback: close its handles, install
// the snapshot into its directory through its disk injector, and reopen.
// A failed install leaves the handles closed, as a crashed process
// would; the harness restarts the node.
func (n *repNode) install(snap *corpus.CheckedSnapshot) (Applier, error) {
	n.mu.Lock()
	n.m.Close()
	n.c.Close()
	fs := n.fs
	n.mu.Unlock()
	if _, err := corpus.Install(n.dir, snap, corpus.Options{FS: fs}); err != nil {
		return nil, err
	}
	return nodeEngine{n}, n.open()
}

// shutdown closes the node cleanly (end-of-iteration teardown).
func (n *repNode) shutdown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m.Close()
	n.c.Close()
}

// nodeEngine adapts a repNode to the Applier interface, reading the
// node's current handles on every call so restarts and installs stay
// transparent.
type nodeEngine struct{ n *repNode }

func (e nodeEngine) LSN() uint64 { return e.n.corpus().LSN() }

func (e nodeEngine) Apply(ps [][]byte) error { return e.n.matcher().ApplyShipped(ps...) }

func (e nodeEngine) Seal() error { return e.n.corpus().Sync() }

// harness wires a primary node and a standby node through swappable
// HTTP fronts, with the primary's outbound traffic running through a
// network injector.
type harness struct {
	t *testing.T

	prim    *repNode
	primSrv *httptest.Server
	primG   *gateHandler
	shipper *Primary
	net     *iofault.NetInjector

	stby       *repNode
	stbySrv    *httptest.Server
	stbyG      *gateHandler
	applier    *Standby
	stbyCancel context.CancelFunc

	// standbyCrashed and primaryCrashed record that a crash fault fired
	// and its process was restarted, so each is restarted exactly once.
	standbyCrashed, primaryCrashed bool

	ctx    context.Context
	cancel context.CancelFunc
}

func newHarness(t *testing.T, plan iofault.NetPlan) *harness {
	t.Helper()
	h := &harness{t: t}
	h.ctx, h.cancel = context.WithCancel(context.Background())

	h.primG = &gateHandler{}
	h.primSrv = httptest.NewServer(h.primG)
	h.stbyG = &gateHandler{}
	h.stbySrv = httptest.NewServer(h.stbyG)

	h.prim = openNode(t, t.TempDir())
	h.stby = openNode(t, t.TempDir())

	// The injector wraps the transport production clients run on, so the
	// sweep faults the connection pool and the exchange the shipper ships
	// with.
	h.net = iofault.NewNetInjector(httpx.NewClient(connectTimeout).Transport, plan)
	h.startShipper()
	return h
}

// startShipper builds a Primary over the primary node's current corpus
// and installs its register endpoint.
func (h *harness) startShipper() {
	h.shipper = NewPrimary(h.prim.corpus(), PrimaryOptions{
		BatchRecords:   tortBatch,
		Heartbeat:      tortHeartbeat,
		RequestTimeout: tortReqTimeout,
		Backoff:        tortBackoff(),
		Client:         &http.Client{Transport: h.net},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/register", h.shipper.ServeRegister)
	h.primG.swap(mux)
}

// startApplier builds a Standby over the standby node's current corpus
// and starts its registration watchdog: the standby joins the primary.
func (h *harness) startApplier() {
	h.applier = NewStandby(nodeEngine{h.stby}, h.stby.install, StandbyOptions{
		Primary:          h.primSrv.URL,
		Advertise:        h.stbySrv.URL,
		RegisterInterval: tortRegister,
		RequestTimeout:   tortReqTimeout,
		Backoff:          tortBackoff(),
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/apply", h.applier.ServeApply)
	mux.HandleFunc("/replication/install", h.applier.ServeInstall)
	h.stbyG.swap(mux)
	ctx, cancel := context.WithCancel(h.ctx)
	h.stbyCancel = cancel
	go h.applier.Run(ctx)
}

// restartStandby simulates the standby process dying and coming back on
// the same directory and URL: only fsynced records survive, and the new
// process re-registers at its replayed LSN.
func (h *harness) restartStandby() {
	h.t.Helper()
	h.stbyCancel()
	h.stbyG.swap(nil) // drain in-flight applies, then refuse
	h.stby.crash()
	if err := h.stby.open(); err != nil {
		h.t.Fatalf("reopen standby: %v", err)
	}
	h.startApplier()
}

// restartPrimary simulates the primary process dying mid-ship and
// coming back on the same directory and URL: its corpus replays, its
// ship ring restarts empty (head = LSN), and it has no memory of any
// follower — the standby's watchdog must find it again.
func (h *harness) restartPrimary() {
	h.t.Helper()
	h.primG.swap(nil)
	h.shipper.Close()
	h.prim.crash()
	if err := h.prim.open(); err != nil {
		h.t.Fatalf("reopen primary: %v", err)
	}
	h.net.SetPlan(iofault.NetDisarmed()) // the restarted process's connections work again
	h.startShipper()
}

func (h *harness) teardown() {
	h.cancel()
	h.shipper.Close()
	h.prim.shutdown()
	h.stby.shutdown()
	h.primSrv.Close()
	h.stbySrv.Close()
}

// healFaults is the convergence babysitter: it turns fired crash faults
// into the matching process restarts, exactly once each.
func (h *harness) healFaults() {
	if !h.standbyCrashed && h.stby.injector().Crashed() {
		h.standbyCrashed = true
		h.restartStandby()
	}
	if !h.primaryCrashed && h.net.Crashed() {
		h.primaryCrashed = true
		h.restartPrimary()
	}
}

// workload drives the scripted mutation sequence against the primary's
// matcher (the production write path: WAL append, then index). The
// standby joins mid-script, after enough history that its registration
// cannot be served from the 8-record ship ring and must install a
// snapshot; the script waits for that install and then runs free. Its
// 192-record tail is many rings long, so primary commits race the
// shipping, and when they outrun it the ring moves past the standby's
// LSN and forces another install — both under whatever fault is armed.
func (h *harness) workload(names []string) {
	h.t.Helper()
	add := func(s string) {
		if _, _, err := h.prim.matcher().AddDurable(s); err != nil {
			h.t.Fatalf("primary add: %v", err)
		}
	}
	del := func(id int) {
		if err := h.prim.matcher().Delete(id); err != nil {
			h.t.Fatalf("primary delete %d: %v", id, err)
		}
	}
	batch := func(names []string) {
		if _, _, err := h.prim.matcher().AddAllDurable(names); err != nil {
			h.t.Fatalf("primary batch add: %v", err)
		}
	}
	for _, s := range names[:10] {
		add(s)
	}
	// LSN 10, ring holds [2, 10): the standby's register at 0 forces an
	// install under whatever fault is armed.
	h.startApplier()
	h.converge()
	// Each round adds 20 names (singly and in batches) and deletes 4
	// ids, one of them added in the same round.
	for b := 10; b+20 <= len(names); b += 20 {
		for _, s := range names[b : b+6] {
			add(s)
		}
		del(b - 7)
		del(b + 1)
		batch(names[b+6 : b+12])
		del(b - 10)
		for _, s := range names[b+12 : b+16] {
			add(s)
		}
		del(b - 5)
		batch(names[b+16 : b+20])
	}
	// LSN 202: 170 adds + 32 deletes.
}

// converge waits until the standby has caught the primary exactly —
// equal LSNs, no install in flight — and the primary holds the ack for
// it, restarting crashed processes along the way. Without the ack, an
// install whose answer was lost is still due a retry, which would swap
// the standby's engine again under the caller's checks.
func (h *harness) converge() {
	h.t.Helper()
	deadline := time.Now().Add(tortConvergence)
	for time.Now().Before(deadline) {
		h.healFaults()
		st := h.applier.Status()
		lsn := h.prim.corpus().LSN()
		if !st.Syncing && st.LSN == lsn && h.primaryAcked(lsn) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.t.Fatalf("pair did not converge: standby=%+v primary lsn=%d followers=%+v",
		h.applier.Status(), h.prim.corpus().LSN(), h.shipper.Status().Followers)
}

// primaryAcked reports whether the primary's ship loop for the standby
// has the standby's ack at lsn.
func (h *harness) primaryAcked(lsn uint64) bool {
	for _, f := range h.shipper.Status().Followers {
		if f.URL == h.stbySrv.URL {
			return f.AckedLSN == lsn
		}
	}
	return false
}

// logicalModel extracts the comparable logical state of a corpus: id
// space, tombstone mask, live token content.
type logicalModel struct {
	strs  []string
	alive []bool
}

func logicalOf(c *corpus.Corpus) *logicalModel {
	v := c.View()
	n := v.TC.NumStrings()
	m := &logicalModel{strs: make([]string, n), alive: make([]bool, n)}
	for i := 0; i < n; i++ {
		m.alive[i] = v.Alive[i]
		if v.Alive[i] {
			m.strs[i] = strings.Join(v.TC.Strings[i].Tokens, "\x00")
		}
	}
	return m
}

func logicalEqual(a, b *logicalModel) error {
	if len(a.strs) != len(b.strs) {
		return fmt.Errorf("id space: %d vs %d strings", len(a.strs), len(b.strs))
	}
	for i := range a.strs {
		if a.alive[i] != b.alive[i] {
			return fmt.Errorf("id %d: alive %v vs %v", i, a.alive[i], b.alive[i])
		}
		if a.alive[i] && a.strs[i] != b.strs[i] {
			return fmt.Errorf("id %d: content %q vs %q", i, a.strs[i], b.strs[i])
		}
	}
	return nil
}

// joinPairs renders a corpus self-join canonically for comparison.
func joinPairs(t *testing.T, c *corpus.Corpus) []string {
	t.Helper()
	opts := tsj.DefaultOptions()
	opts.Threshold = 0.25
	res, _, err := tsj.SelfJoinCorpus(c, opts)
	if err != nil {
		t.Fatalf("SelfJoinCorpus: %v", err)
	}
	ps := make([]string, len(res))
	for i, r := range res {
		ps[i] = fmt.Sprintf("%d-%d-%d", r.A, r.B, r.SLD)
	}
	sort.Strings(ps)
	return ps
}

func matchesString(ms []stream.Match) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprintf("%d:%d:%.6f", m.ID, m.SLD, m.NSLD)
	}
	return strings.Join(parts, ",")
}

// checkEquivalence asserts the replicated pair is indistinguishable:
// logical state, self-join results, and live query answers.
func (h *harness) checkEquivalence(probes []string) {
	h.t.Helper()
	if err := logicalEqual(logicalOf(h.prim.corpus()), logicalOf(h.stby.corpus())); err != nil {
		h.t.Fatalf("replicated state diverged: %v", err)
	}
	pj := joinPairs(h.t, h.prim.corpus())
	sj := joinPairs(h.t, h.stby.corpus())
	if strings.Join(pj, "|") != strings.Join(sj, "|") {
		h.t.Fatalf("join results diverged:\nprimary: %v\nstandby: %v", pj, sj)
	}
	for _, q := range probes {
		p := matchesString(h.prim.matcher().Query(q))
		s := matchesString(h.stby.matcher().Query(q))
		if p != s {
			h.t.Fatalf("query %q diverged:\nprimary: %s\nstandby: %s", q, p, s)
		}
	}
}

// tortureNames is the deterministic workload corpus (170 names used by
// the script; similar enough under T=0.25 that joins are non-trivial).
func tortureNames() []string {
	return namegen.Generate(namegen.Config{Seed: 7, NumNames: 170})
}

// netFlavor is one network-fault shape swept across every trip index.
type netFlavor struct {
	name string
	plan func(h *harness, i int64) iofault.NetPlan
}

var netFlavors = []netFlavor{
	{"drop", func(h *harness, i int64) iofault.NetPlan {
		return iofault.NetPlan{FailAt: i, Kind: iofault.NetDrop}
	}},
	{"torn", func(h *harness, i int64) iofault.NetPlan {
		return iofault.NetPlan{FailAt: i, Kind: iofault.NetTorn}
	}},
	{"delay", func(h *harness, i int64) iofault.NetPlan {
		return iofault.NetPlan{FailAt: i, Kind: iofault.NetDelay, Stall: tortDelayStall}
	}},
	{"standby-crash", func(h *harness, i int64) iofault.NetPlan {
		// The batch (or snapshot) is delivered and the standby's disk
		// dies on the second filesystem operation of the apply (or
		// install): a power cut mid-way. Only fsynced records (or the
		// state before the install's rename) survive its restart.
		return iofault.NetPlan{FailAt: i, Kind: iofault.NetTorn, OnFault: func() {
			h.stby.injector().SetPlan(iofault.Plan{FailAt: 1, Crash: true})
		}}
	}},
	{"primary-crash", func(h *harness, i int64) iofault.NetPlan {
		return iofault.NetPlan{FailAt: i, Kind: iofault.NetCrash}
	}},
}

// tortureOne runs the full scripted replication once with the given
// plan and asserts convergence and equivalence. Returns the primary's
// round-trip count (the sweep bound on the reference run) and the
// records the standby holds, every one of which crossed the primary's
// network in an apply frame or a snapshot install.
func tortureOne(t *testing.T, mkPlan func(h *harness) iofault.NetPlan) (trips int64, records uint64) {
	t.Helper()
	var h *harness
	h = newHarness(t, iofault.NetDisarmed())
	defer h.teardown()
	if mkPlan != nil {
		h.net.SetPlan(mkPlan(h))
	}

	names := tortureNames()
	h.workload(names)

	h.converge()
	// One last heal pass: a crash fault that fired after the final
	// workload record was acked leaves the pair converged but a process
	// notionally dead; restart it and re-converge so the equivalence
	// checks run against live nodes.
	h.healFaults()
	h.converge()

	probes := append(append([]string(nil), names[:4]...), names[16:20]...)
	h.checkEquivalence(probes)

	// Promotion of the caught-up standby must seal it against further
	// replication and leave its engine serving byte-identical results.
	if err := h.applier.Promote(); err != nil {
		t.Fatalf("promote converged standby: %v", err)
	}
	h.checkEquivalence(probes)
	return h.net.Trips(), h.stby.corpus().LSN()
}

// TestReplicationTortureSweep fails every primary round trip of a
// reference run in turn, across all five fault flavors.
func TestReplicationTortureSweep(t *testing.T) {
	if testing.Short() && testing.Verbose() {
		t.Log("short mode: sweeping with a coarser stride")
	}
	// The floor counts the records the reference run replicated, which
	// the script fixes, not its round trips: when the primary outruns the
	// 8-record ship ring, fewer and larger installs carry what many apply
	// batches would have, so the trip count moves from run to run (14 to
	// 69 between runs of one binary). The floor asks for the records of
	// at least 8 full apply batches.
	trips, records := tortureOne(t, nil)
	if records < 8*tortBatch {
		t.Fatalf("reference run replicated only %d records, fewer than 8 full batches; workload too small for a meaningful sweep", records)
	}
	t.Logf("reference run: %d records in %d primary round trips", records, trips)

	// Round trips after the reference count are timing noise; the sweep
	// covers the deterministic core. It never covers fewer than 96
	// indices, above the 9 to 93 trips reference runs have made: the
	// reference count itself moves with the installs and heartbeats, and
	// a suite whose subtest names change from run to run cannot be
	// compared with its last run. Short mode sweeps max(trips, 24)
	// indices at a coarser stride but still touches every flavor at
	// several indices.
	sweep, stride := max(trips, 96), int64(1)
	if testing.Short() {
		sweep = max(trips, 24)
		stride = sweep/6 + 1
	}
	for _, fl := range netFlavors {
		for i := int64(0); i < sweep; i += stride {
			i := i
			t.Run(fmt.Sprintf("%s/trip%02d", fl.name, i), func(t *testing.T) {
				got, _ := tortureOne(t, func(h *harness) iofault.NetPlan { return fl.plan(h, i) })
				if got <= i {
					// The faulted run finished in fewer trips than the
					// fault index (timing variance): the fault never
					// fired, which the equivalence checks already proved
					// harmless. Nothing more to assert.
					t.Logf("fault index %d beyond this run's %d trips (never fired)", i, got)
				}
			})
		}
	}
}

// TestPromotionEquivalence is the failover drill: replicate, kill the
// primary for good, promote the standby, and verify the promoted node
// is a fully writable primary with byte-identical query results.
func TestPromotionEquivalence(t *testing.T) {
	h := newHarness(t, iofault.NetDisarmed())
	defer h.teardown()

	names := tortureNames()
	h.workload(names)
	h.converge()

	// Freeze the primary's answers, then kill it.
	wantJoin := joinPairs(t, h.prim.corpus())
	probes := names[:6]
	wantQueries := make([]string, len(probes))
	for i, q := range probes {
		wantQueries[i] = matchesString(h.prim.matcher().Query(q))
	}
	h.primG.swap(nil)
	h.shipper.Close()

	if err := h.applier.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !h.applier.Sealed() {
		t.Fatal("standby not sealed after promote")
	}

	gotJoin := joinPairs(t, h.stby.corpus())
	if strings.Join(wantJoin, "|") != strings.Join(gotJoin, "|") {
		t.Fatalf("promoted join diverged:\nwant %v\ngot  %v", wantJoin, gotJoin)
	}
	for i, q := range probes {
		if got := matchesString(h.stby.matcher().Query(q)); got != wantQueries[i] {
			t.Fatalf("promoted query %q diverged:\nwant %s\ngot  %s", q, wantQueries[i], got)
		}
	}

	// The promoted node is writable: a durable add lands in its WAL with
	// the next dense id, and it can seed its own followers.
	wantID := h.stby.corpus().Len()
	id, _, err := h.stby.matcher().AddDurable("promoted write probe")
	if err != nil {
		t.Fatalf("write on promoted node: %v", err)
	}
	if id != wantID {
		t.Fatalf("promoted write id = %d, want %d", id, wantID)
	}
	if _, lsn := h.stby.corpus().SnapshotBytes(); lsn != h.stby.corpus().LSN() {
		t.Fatalf("promoted node cannot seed followers: snapshot lsn %d vs %d", lsn, h.stby.corpus().LSN())
	}

	// A straggler batch from a zombie primary is refused with Sealed.
	resp, _ := postApply(t, h.applier, applyRequest{From: h.applier.LSN(), Frames: makeFrames(testPayloads(1))})
	if !resp.Sealed {
		t.Fatalf("zombie apply after promotion not refused: %+v", resp)
	}
}

// TestReplicationRestartEquivalence reopens a converged standby's
// directory cold (no replication traffic) and checks it replays to the
// identical state — the "warm standby is just a restartable corpus"
// property every crash flavor above leans on.
func TestReplicationRestartEquivalence(t *testing.T) {
	h := newHarness(t, iofault.NetDisarmed())
	defer h.teardown()
	h.workload(tortureNames())
	h.converge()

	want := logicalOf(h.stby.corpus())
	wantLSN := h.stby.corpus().LSN()
	h.stbyCancel()
	h.stbyG.swap(nil)
	h.stby.shutdown()

	c, err := corpus.Open(h.stby.dir, corpus.Options{SyncEvery: 1})
	if err != nil {
		t.Fatalf("cold reopen: %v", err)
	}
	if err := logicalEqual(want, logicalOf(c)); err != nil {
		t.Fatalf("cold reopen diverged: %v", err)
	}
	if c.LSN() != wantLSN {
		t.Fatalf("cold reopen lsn %d, want %d", c.LSN(), wantLSN)
	}
	// Reopen the node so teardown's shutdown has live handles.
	c.Close()
	if err := h.stby.open(); err != nil {
		t.Fatalf("reopen node: %v", err)
	}
}
