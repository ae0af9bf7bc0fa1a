package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/corpus"
	"repro/internal/token"
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

// postInstall drives ServeInstall directly with a recorder. It does not
// fail the test itself, so a goroutine may call it.
func postInstall(s *Standby, body io.Reader) (applyResponse, int) {
	w := httptest.NewRecorder()
	s.ServeInstall(w, httptest.NewRequest(http.MethodPost, "/replication/install", body))
	var resp applyResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp) // a body that is not JSON leaves resp zero, which callers' checks reject
	return resp, w.Code
}

// memInstall stands in for a snapshot install: a fresh engine at the
// snapshot's LSN, holding that many placeholder records.
func memInstall(snap *corpus.CheckedSnapshot) (Applier, error) {
	return &memEngine{applied: make([][]byte, snap.LSN())}, nil
}

func newMemStandby(t *testing.T) (*Standby, *memEngine) {
	t.Helper()
	eng := &memEngine{}
	s := NewStandby(eng, memInstall, StandbyOptions{Primary: "http://unused", Advertise: "http://unused"})
	return s, eng
}

// testSnapshot is the snapshot of a corpus holding adds distinct names
// with the first dels of them deleted, and its LSN.
func testSnapshot(t *testing.T, adds, dels int) ([]byte, uint64) {
	t.Helper()
	c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < adds; i++ {
		if _, err := c.Add(fmt.Sprintf("name%d surname%d", i, i%3)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < dels; i++ {
		if err := c.Delete(token.StringID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c.SnapshotBytes()
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

// TestReplicationInstallAndPromote: an install replaces whatever the
// standby held with the snapshot's state and answers its LSN. While its
// body is still arriving the standby reports syncing, is not ready and
// refuses promotion; once promoted, it answers replication traffic —
// applies and installs alike — with Sealed and changes nothing.
func TestReplicationInstallAndPromote(t *testing.T) {
	s, _ := newMemStandby(t)
	// Pre-install state the install must replace.
	postApply(t, s, applyRequest{From: 0, Frames: makeFrames(testPayloads(2))})
	snap, lsn := testSnapshot(t, 5, 1)

	pr, pw := io.Pipe()
	type result struct {
		resp applyResponse
		code int
	}
	done := make(chan result)
	go func() {
		resp, code := postInstall(s, pr)
		done <- result{resp, code}
	}()
	if _, err := pw.Write(snap[:10]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "install in flight", func() bool { return s.Status().Syncing })
	if err := s.Promote(); !errors.Is(err, ErrSyncing) {
		t.Fatalf("promote mid-install: %v, want ErrSyncing", err)
	}
	if s.Ready() {
		t.Fatal("ready mid-install")
	}
	if _, err := pw.Write(snap[10:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if r := <-done; r.code != http.StatusOK || r.resp.LSN != lsn {
		t.Fatalf("install: code=%d resp=%+v, want lsn %d", r.code, r.resp, lsn)
	}
	if st := s.Status(); st.Syncing || st.LSN != lsn || st.Resyncs != 1 {
		t.Fatalf("after install: %+v", st)
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
	// primary stops shipping; nothing is applied or installed.
	resp, code := postApply(t, s, applyRequest{From: lsn, Frames: makeFrames(testPayloads(1))})
	if code != http.StatusOK || !resp.Sealed || resp.LSN != lsn {
		t.Fatalf("post-seal apply: code=%d resp=%+v", code, resp)
	}
	other, _ := testSnapshot(t, 2, 0)
	resp, code = postInstall(s, bytes.NewReader(other))
	if code != http.StatusOK || !resp.Sealed || resp.LSN != lsn || s.Status().Resyncs != 1 {
		t.Fatalf("post-seal install: code=%d resp=%+v status=%+v", code, resp, s.Status())
	}
}

// TestReplicationInstallRejectsBadBodies: a body that is not a snapshot
// the standby's own restart would load — empty, truncated, bit-flipped,
// an unsupported version, or one trailing byte past a well-formed body
// under a valid CRC — is answered 400 with an error, before the engine
// is touched: the standby's state and LSN stay as they were.
func TestReplicationInstallRejectsBadBodies(t *testing.T) {
	n := openNode(t, t.TempDir())
	defer n.shutdown()
	for _, name := range tortureNames()[:6] {
		if _, _, err := n.m.AddDurable(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.m.Delete(2); err != nil {
		t.Fatal(err)
	}
	want, wantLSN := logicalOf(n.c), n.c.LSN()
	installs := 0
	s := NewStandby(nodeEngine{n}, func(snap *corpus.CheckedSnapshot) (Applier, error) {
		installs++
		return n.install(snap)
	}, StandbyOptions{Primary: "http://unused", Advertise: "http://unused"})

	good, goodLSN := testSnapshot(t, 4, 1)
	body := good[:len(good)-4]
	withCRC := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	}
	v1 := slices.Clone(body)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	flipped := slices.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"truncated", good[:len(good)/2]},
		{"bit-flipped", flipped},
		{"version 1", withCRC(v1)},
		{"trailing byte", withCRC(append(slices.Clone(body), 0))},
	} {
		resp, code := postInstall(s, bytes.NewReader(tc.raw))
		if code != http.StatusBadRequest || resp.Error == "" || resp.LSN != wantLSN {
			t.Fatalf("%s: code=%d resp=%+v, want 400 with an error at lsn %d", tc.name, code, resp, wantLSN)
		}
		if installs != 0 || n.corpus().LSN() != wantLSN {
			t.Fatalf("%s: %d installs, lsn %d; want none, lsn %d", tc.name, installs, n.corpus().LSN(), wantLSN)
		}
		if err := logicalEqual(want, logicalOf(n.corpus())); err != nil {
			t.Fatalf("%s: state changed: %v", tc.name, err)
		}
	}

	// The body they were made from installs.
	if resp, code := postInstall(s, bytes.NewReader(good)); code != http.StatusOK || resp.LSN != goodLSN || installs != 1 {
		t.Fatalf("good body: code=%d resp=%+v installs=%d, want lsn %d", code, resp, installs, goodLSN)
	}
}

// TestReplicationInstallStalledBody: a primary that stalls mid-body —
// its host gone, the connection still open — fails the install once one
// read has waited RequestTimeout. The standby answers 400, is promotable
// again, and its state is untouched.
func TestReplicationInstallStalledBody(t *testing.T) {
	eng := &memEngine{}
	s := NewStandby(eng, memInstall, StandbyOptions{Primary: "http://unused", Advertise: "http://unused", RequestTimeout: 50 * time.Millisecond})
	srv := standbyServer(t, s)
	snap, _ := testSnapshot(t, 5, 1)

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "POST /replication/install HTTP/1.1\r\nHost: standby\r\nContent-Length: %d\r\n\r\n%s", len(snap), snap[:10]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer to a stalled install: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled install answered %d, want 400", resp.StatusCode)
	}
	if st := s.Status(); st.Syncing || st.LSN != 0 || st.Resyncs != 0 {
		t.Fatalf("after a stalled install: %+v", st)
	}
	if err := s.Promote(); err != nil {
		t.Fatalf("promote after a stalled install: %v", err)
	}
}

func TestPromoteSealFailureIsRetryable(t *testing.T) {
	eng := &memEngine{sealErr: errors.New("disk full")}
	s := NewStandby(eng, memInstall, StandbyOptions{Primary: "http://unused", Advertise: "http://unused"})
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

// standbyServer exposes a Standby's apply and install endpoints over
// httptest.
func standbyServer(t *testing.T, s *Standby) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/apply", s.ServeApply)
	mux.HandleFunc("/replication/install", s.ServeInstall)
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

// TestPrimaryStreamingAfterFailedHeartbeat: a caught-up follower whose
// standby answers one heartbeat with a 500 is retried, and the next
// answered heartbeat reports it streaming again, with no write needed to
// clear the retrying state.
func TestPrimaryStreamingAfterFailedHeartbeat(t *testing.T) {
	c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatalf("open corpus: %v", err)
	}
	defer c.Close()
	for _, s := range []string{"alpha beta", "beta gamma", "gamma delta"} {
		if _, err := c.Add(s); err != nil {
			t.Fatalf("add: %v", err)
		}
	}

	stby, _ := newMemStandby(t)
	var failHeartbeat, failed atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/replication/apply", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req applyRequest
		if json.Unmarshal(body, &req) == nil && len(req.Frames) == 0 && failHeartbeat.CompareAndSwap(true, false) {
			failed.Store(true)
			http.Error(w, "injected heartbeat failure", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		stby.ServeApply(w, r)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	prim := NewPrimary(c, fastPrimaryOptions())
	defer prim.Close()
	if err := prim.Register(srv.URL, 0); err != nil {
		t.Fatalf("register: %v", err)
	}
	follower := func() FollowerStatus {
		fs := prim.Status().Followers
		if len(fs) != 1 {
			t.Fatalf("followers = %d", len(fs))
		}
		return fs[0]
	}
	waitFor(t, "catch-up and a heartbeat", func() bool { return stby.LSN() == c.LSN() && follower().Heartbeats >= 1 })

	failHeartbeat.Store(true)
	waitFor(t, "the injected failure", failed.Load)
	beats := follower().Heartbeats
	waitFor(t, "two more heartbeats", func() bool { return follower().Heartbeats >= beats+2 })
	if f := follower(); f.State != "streaming" || f.Retries < 1 || f.LagRecords != 0 || f.AckedLSN != c.LSN() {
		t.Fatalf("follower status after a failed heartbeat: %+v", f)
	}
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
	// cannot be served from the ring and must install a snapshot.

	stby, _ := newMemStandby(t)
	srv := standbyServer(t, stby)

	prim := NewPrimary(c, fastPrimaryOptions())
	defer prim.Close()
	if err := prim.Register(srv.URL, 0); err != nil {
		t.Fatalf("register: %v", err)
	}

	waitFor(t, "install catch-up", func() bool { return stby.LSN() == c.LSN() })
	st := stby.Status()
	if st.Resyncs != 1 {
		t.Fatalf("want exactly one install: %+v", st)
	}
	if st.Syncing {
		t.Fatalf("still syncing after catch-up: %+v", st)
	}
	// The install carried the whole state: nothing was shipped as records.
	if st.AppliedRecords != 0 {
		t.Fatalf("catch-up applied %d records, want none past the install", st.AppliedRecords)
	}
	if fs := prim.Status().Followers; len(fs) != 1 || fs[0].Resyncs != 1 {
		t.Fatalf("primary install accounting: %+v", fs)
	}

	// After the install the follower tails incrementally.
	if _, err := c.Add("lambda suffix"); err != nil {
		t.Fatalf("add: %v", err)
	}
	waitFor(t, "post-install tail", func() bool { return stby.LSN() == c.LSN() })
	if st := stby.Status(); st.AppliedRecords != 1 || st.Resyncs != 1 {
		t.Fatalf("post-install tail: %+v", st)
	}
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
