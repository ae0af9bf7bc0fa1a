package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/corpus"
)

// memEngine is a pure in-memory Applier: each payload is one LSN unit,
// exactly the corpus's accounting, so protocol tests need no disk.
type memEngine struct {
	mu      sync.Mutex
	applied [][]byte
	sealErr error
}

func (e *memEngine) LSN() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return uint64(len(e.applied))
}

func (e *memEngine) Apply(ps [][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range ps {
		e.applied = append(e.applied, append([]byte(nil), p...))
	}
	return nil
}

func (e *memEngine) Seal() error { return e.sealErr }

func (e *memEngine) payloads() [][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([][]byte, len(e.applied))
	copy(out, e.applied)
	return out
}

// testPayloads builds n distinct fake record payloads.
func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte{0x01, byte(i), byte(i >> 8)}
	}
	return out
}

// postApply drives ServeApply directly with a recorder.
func postApply(t *testing.T, s *Standby, req applyRequest) (applyResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	r := httptest.NewRequest(http.MethodPost, "/replication/apply", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeApply(w, r)
	var resp applyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad apply response (%d): %q", w.Code, w.Body.String())
	}
	return resp, w.Code
}

func newMemStandby(t *testing.T) (*Standby, *memEngine) {
	t.Helper()
	eng := &memEngine{}
	reset := func() (Applier, error) {
		eng = &memEngine{}
		return eng, nil
	}
	s := NewStandby(eng, reset, StandbyOptions{Primary: "http://unused", Advertise: "http://unused"})
	return s, eng
}

func TestServeApplyGapAndOverlap(t *testing.T) {
	s, eng := newMemStandby(t)
	p := testPayloads(5)

	// Clean batch.
	resp, code := postApply(t, s, applyRequest{From: 0, Frames: makeFrames(p[:2])})
	if code != http.StatusOK || resp.LSN != 2 {
		t.Fatalf("clean batch: code=%d lsn=%d", code, resp.LSN)
	}

	// Gap: a batch starting beyond our LSN must be rejected untouched,
	// answering where we actually are.
	resp, code = postApply(t, s, applyRequest{From: 4, Frames: makeFrames(p[4:])})
	if code != http.StatusOK || resp.LSN != 2 {
		t.Fatalf("gap batch: code=%d lsn=%d", code, resp.LSN)
	}
	if st := s.Status(); st.GapRejects != 1 {
		t.Fatalf("gap rejects = %d, want 1", st.GapRejects)
	}

	// Retry after a lost ack: the batch overlaps what we already applied;
	// the overlap must be skipped, not re-applied.
	resp, _ = postApply(t, s, applyRequest{From: 0, Frames: makeFrames(p[:4])})
	if resp.LSN != 4 {
		t.Fatalf("overlap batch: lsn=%d, want 4", resp.LSN)
	}
	got := eng.payloads()
	if len(got) != 4 {
		t.Fatalf("applied %d records, want 4 (duplicates not suppressed)", len(got))
	}
	for i, b := range got {
		if !bytes.Equal(b, p[i]) {
			t.Fatalf("record %d = %v, want %v", i, b, p[i])
		}
	}

	// A corrupted frame must be rejected before touching the engine.
	bad := makeFrames(p[4:])
	bad[0].CRC ^= 1
	resp, code = postApply(t, s, applyRequest{From: 4, Frames: bad})
	if code != http.StatusInternalServerError || resp.LSN != 4 {
		t.Fatalf("corrupt frame: code=%d lsn=%d", code, resp.LSN)
	}

	// Heartbeat: no frames, counts, refreshes contact.
	resp, _ = postApply(t, s, applyRequest{From: 4})
	if resp.LSN != 4 {
		t.Fatalf("heartbeat lsn=%d", resp.LSN)
	}
	if st := s.Status(); st.Heartbeats != 1 || !st.Registered {
		t.Fatalf("after heartbeat: %+v", st)
	}

	// Method rejection.
	w := httptest.NewRecorder()
	s.ServeApply(w, httptest.NewRequest(http.MethodGet, "/replication/apply", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET apply: code=%d", w.Code)
	}
}

func TestServeApplyResyncAndPromote(t *testing.T) {
	s, _ := newMemStandby(t)
	p := testPayloads(4)

	// Seed some pre-resync state the wipe must discard.
	postApply(t, s, applyRequest{From: 0, Frames: makeFrames(testPayloads(2))})

	// First bootstrap chunk: wipe, then apply from offset 0.
	resp, _ := postApply(t, s, applyRequest{From: 0, Resync: true, SyncTo: 4, Frames: makeFrames(p[:2])})
	if resp.LSN != 2 {
		t.Fatalf("resync chunk: lsn=%d, want 2", resp.LSN)
	}
	if st := s.Status(); !st.Syncing || st.SyncTarget != 4 || st.Resyncs != 1 {
		t.Fatalf("mid-bootstrap status: %+v", st)
	}

	// Promotion mid-bootstrap must be refused: the state is a partial
	// re-seed, not any prefix of the primary's history.
	if err := s.Promote(); !errors.Is(err, ErrSyncing) {
		t.Fatalf("promote mid-sync: %v, want ErrSyncing", err)
	}

	// Final chunk reaches the target; syncing clears.
	resp, _ = postApply(t, s, applyRequest{From: 2, SyncTo: 4, Frames: makeFrames(p[2:])})
	if resp.LSN != 4 {
		t.Fatalf("final chunk: lsn=%d", resp.LSN)
	}
	if st := s.Status(); st.Syncing {
		t.Fatalf("still syncing after reaching target: %+v", st)
	}

	if err := s.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if err := s.Promote(); err != nil {
		t.Fatalf("second promote not idempotent: %v", err)
	}
	if !s.Sealed() {
		t.Fatal("not sealed after promote")
	}

	// Replication traffic after promotion is answered Sealed so the old
	// primary stops shipping; nothing is applied.
	resp, code := postApply(t, s, applyRequest{From: 4, Frames: makeFrames(testPayloads(1))})
	if code != http.StatusOK || !resp.Sealed || resp.LSN != 4 {
		t.Fatalf("post-seal apply: code=%d resp=%+v", code, resp)
	}
}

func TestResyncMarkerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	eng := &memEngine{}
	reset := func() (Applier, error) {
		eng = &memEngine{}
		return eng, nil
	}
	opts := StandbyOptions{Primary: "http://unused", Advertise: "http://unused", StateDir: dir}
	s := NewStandby(eng, reset, opts)
	p := testPayloads(6)

	// A bootstrap starts (wipe + first chunk) but never finishes: the
	// marker must be on disk.
	resp, _ := postApply(t, s, applyRequest{From: 0, Resync: true, SyncTo: 6, Frames: makeFrames(p[:4])})
	if resp.LSN != 4 || !resp.Syncing {
		t.Fatalf("mid-bootstrap ack: %+v", resp)
	}
	if _, err := os.Stat(filepath.Join(dir, "RESYNC")); err != nil {
		t.Fatalf("marker not written: %v", err)
	}

	// "Crash": a fresh Standby over the same state dir must know its
	// engine holds a partial bootstrap, report Syncing, and refuse
	// promotion and real-history batches.
	s2 := NewStandby(&memEngine{applied: testPayloads(4)}, reset, opts)
	if st := s2.Status(); !st.Syncing {
		t.Fatalf("restarted standby not syncing: %+v", st)
	}
	if err := s2.Promote(); !errors.Is(err, ErrSyncing) {
		t.Fatalf("promote of partial bootstrap: %v, want ErrSyncing", err)
	}
	resp, _ = postApply(t, s2, applyRequest{From: 4, Frames: makeFrames(p[4:])})
	if !resp.Syncing {
		t.Fatalf("real-history batch accepted mid-resync: %+v", resp)
	}

	// A fresh, completed re-seed clears the marker and the state.
	resp, _ = postApply(t, s2, applyRequest{From: 0, Resync: true, SyncTo: 6, Frames: makeFrames(p[:4])})
	if resp.LSN != 4 || !resp.Syncing {
		t.Fatalf("re-seed first chunk: %+v", resp)
	}
	resp, _ = postApply(t, s2, applyRequest{From: 4, SyncTo: 6, Frames: makeFrames(p[4:])})
	if resp.LSN != 6 || resp.Syncing {
		t.Fatalf("re-seed final chunk: %+v", resp)
	}
	if _, err := os.Stat(filepath.Join(dir, "RESYNC")); !os.IsNotExist(err) {
		t.Fatalf("marker not cleared: %v", err)
	}
	if err := s2.Promote(); err != nil {
		t.Fatalf("promote after re-seed: %v", err)
	}
}

func TestPromoteSealFailureIsRetryable(t *testing.T) {
	eng := &memEngine{sealErr: errors.New("disk full")}
	s := NewStandby(eng, func() (Applier, error) { return eng, nil },
		StandbyOptions{Primary: "http://unused", Advertise: "http://unused"})
	if err := s.Promote(); err == nil {
		t.Fatal("promote with failing seal succeeded")
	}
	if s.Sealed() {
		t.Fatal("sealed after failed promote")
	}
	eng.sealErr = nil
	if err := s.Promote(); err != nil {
		t.Fatalf("retried promote: %v", err)
	}
}

// fastPrimaryOptions keeps a unit-test pair snappy.
func fastPrimaryOptions() PrimaryOptions {
	return PrimaryOptions{
		BatchRecords: 4,
		Heartbeat:    10 * time.Millisecond,
		Backoff:      backoff.Policy{Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 0.25},
	}
}

// standbyServer exposes a Standby's apply endpoint over httptest.
func standbyServer(t *testing.T, s *Standby) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/apply", s.ServeApply)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestPrimaryStreamsHeartbeatsAndSeals(t *testing.T) {
	c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	defer c.Close()
	for _, s := range []string{"alpha beta", "beta gamma", "gamma delta", "delta epsilon", "epsilon zeta"} {
		if _, err := c.Add(s); err != nil {
			t.Fatalf("add: %v", err)
		}
	}

	stby, eng := newMemStandby(t)
	srv := standbyServer(t, stby)

	prim := NewPrimary(c, fastPrimaryOptions())
	defer prim.Close()
	if err := prim.Register(srv.URL, 0); err != nil {
		t.Fatalf("register: %v", err)
	}

	waitFor(t, "initial catch-up", func() bool { return stby.LSN() == c.LSN() })
	if got := len(eng.payloads()); got != 5 {
		t.Fatalf("standby applied %d records, want 5", got)
	}

	// Live tail: new commits ship promptly via the notify channel.
	if _, err := c.Add("zeta eta"); err != nil {
		t.Fatalf("add: %v", err)
	}
	if err := c.Delete(0); err != nil {
		t.Fatalf("delete: %v", err)
	}
	waitFor(t, "live tail", func() bool { return stby.LSN() == c.LSN() })

	// Idle: heartbeats flow and the follower reports zero lag.
	waitFor(t, "heartbeats", func() bool { return stby.Status().Heartbeats >= 2 })
	st := prim.Status()
	if len(st.Followers) != 1 {
		t.Fatalf("followers = %d", len(st.Followers))
	}
	f := st.Followers[0]
	if f.State != "streaming" || f.LagRecords != 0 || f.AckedLSN != c.LSN() {
		t.Fatalf("follower status: %+v", f)
	}

	// Promotion seals the standby; the next primary round trip sees it
	// and the ship loop stops.
	if err := stby.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	waitFor(t, "primary observes seal", func() bool {
		fs := prim.Status().Followers
		return len(fs) == 1 && fs[0].State == "sealed"
	})
}

func TestPrimaryBootstrapsBehindFollower(t *testing.T) {
	c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true, ShipBufferRecords: 4})
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	defer c.Close()
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa"}
	for _, s := range words {
		if _, err := c.Add(s + " suffix"); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if err := c.Delete(1); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// LSN 11 with only the last 4 records retained: a fresh follower
	// cannot be served from the ring and must be bootstrapped.

	stby, _ := newMemStandby(t)
	srv := standbyServer(t, stby)

	prim := NewPrimary(c, fastPrimaryOptions())
	defer prim.Close()
	if err := prim.Register(srv.URL, 0); err != nil {
		t.Fatalf("register: %v", err)
	}

	waitFor(t, "bootstrap catch-up", func() bool { return stby.LSN() == c.LSN() })
	st := stby.Status()
	if st.Resyncs < 1 {
		t.Fatalf("no resync recorded: %+v", st)
	}
	if st.Syncing {
		t.Fatalf("still syncing after catch-up: %+v", st)
	}
	// The bootstrap stream re-creates the full LSN history: one payload
	// per LSN unit (tombstones contribute their add and their delete).
	// The resync wiped the engine, so everything applied since the
	// standby started is bootstrap records.
	if got, want := st.AppliedRecords, int64(c.LSN()); got != want {
		t.Fatalf("bootstrap applied %d records, want %d", got, want)
	}
	if fs := prim.Status().Followers; len(fs) != 1 || fs[0].Resyncs < 1 {
		t.Fatalf("primary resync accounting: %+v", fs)
	}

	// After the bootstrap the follower tails incrementally.
	if _, err := c.Add("lambda suffix"); err != nil {
		t.Fatalf("add: %v", err)
	}
	waitFor(t, "post-bootstrap tail", func() bool { return stby.LSN() == c.LSN() })
}

func TestServeRegisterValidation(t *testing.T) {
	c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	defer c.Close()
	prim := NewPrimary(c, fastPrimaryOptions())

	w := httptest.NewRecorder()
	prim.ServeRegister(w, httptest.NewRequest(http.MethodGet, "/replication/register", nil))
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET register: %d", w.Code)
	}

	w = httptest.NewRecorder()
	prim.ServeRegister(w, httptest.NewRequest(http.MethodPost, "/replication/register", bytes.NewReader([]byte(`{}`))))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("empty advertise: %d", w.Code)
	}

	prim.Close()
	body, _ := json.Marshal(registerRequest{Advertise: "http://gone", LSN: 0})
	w = httptest.NewRecorder()
	prim.ServeRegister(w, httptest.NewRequest(http.MethodPost, "/replication/register", bytes.NewReader(body)))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("register after close: %d", w.Code)
	}
}
