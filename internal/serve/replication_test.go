package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	tsjoin "repro"
	"repro/internal/backoff"
	"repro/internal/distrib"
	"repro/internal/iofault"
	"repro/internal/replica"
)

// Fast replication timings so the e2e tests converge in milliseconds.
func fastPrimaryOptions(t *testing.T) replica.PrimaryOptions {
	return replica.PrimaryOptions{
		BatchRecords: 4,
		Heartbeat:    15 * time.Millisecond,
		Backoff:      backoff.Policy{Base: 2 * time.Millisecond, Cap: 30 * time.Millisecond},
		Logf:         t.Logf,
	}
}

// newReplPrimary starts a durable tsjserve primary with a shipping-
// capable replication side, mirroring run()'s wiring.
func newReplPrimary(t *testing.T, dir string) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, ts := buildReplServer(t, dir, nil)
	s.prim = replica.NewPrimary(s.c, fastPrimaryOptions(t))
	ts.Start()
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		ts.Close()
		if p := s.shipper(); p != nil {
			p.Close()
		}
		s.closeEngine()
	}
	t.Cleanup(shutdown)
	return s, ts, shutdown
}

// newReplStandby starts a standby replicating from primaryURL. The
// watchdog runs until the test ends or the standby seals.
func newReplStandby(t *testing.T, dir, primaryURL string) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, ts := buildReplServer(t, dir, nil)
	s.role.Store(roleStandby)
	// The listener exists before Start, so the advertise URL is known
	// before any replication traffic can race the field writes below.
	advertise := "http://" + ts.Listener.Addr().String()
	s.stby = replica.NewStandby(serverEngine{s}, s.installEngine, replica.StandbyOptions{
		Primary:          primaryURL,
		Advertise:        advertise,
		RegisterInterval: 60 * time.Millisecond,
		Backoff:          backoff.Policy{Base: 2 * time.Millisecond, Cap: 30 * time.Millisecond},
		Logf:             t.Logf,
	})
	ts.Start()
	ctx, cancel := context.WithCancel(context.Background())
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		s.stby.Run(ctx)
	}()
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		cancel()
		<-watchdogDone
		ts.Close()
		if p := s.shipper(); p != nil {
			p.Close()
		}
		s.closeEngine()
	}
	t.Cleanup(shutdown)
	return s, ts, shutdown
}

// buildReplServer assembles an unstarted durable server with the install
// plumbing (dataDir + reopen options) that replication needs.
func buildReplServer(t *testing.T, dir string, fs iofault.FS) (*Server, *httptest.Server) {
	t.Helper()
	copts := tsjoin.CorpusOptions{FS: fs}
	mopts := tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
		Shards:         2,
	}
	c, err := tsjoin.OpenCorpus(dir, copts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tsjoin.NewConcurrentMatcherFromCorpus(c, mopts)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	s := newServer(m, c, 0)
	s.dataDir = dir
	s.mopts = mopts
	s.copts = copts
	return s, httptest.NewUnstartedServer(s.Handler())
}

// getJSON GETs url and decodes the body (request() closes its body, so
// it cannot be used for responses that need decoding).
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func getReplication(t *testing.T, baseURL string) replStatus {
	t.Helper()
	var st replStatus
	getJSON(t, baseURL+"/replication", &st)
	return st
}

func queryNames(t *testing.T, baseURL, name string) []distrib.Match {
	t.Helper()
	var out struct {
		Matches []distrib.Match `json:"matches"`
	}
	if resp := post(t, baseURL+"/query", fmt.Sprintf(`{"name": %q}`, name), &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d", name, resp.StatusCode)
	}
	return out.Matches
}

// TestReplicationHandlerTable drives every replication endpoint through
// its rejection paths: wrong method, wrong role, installing standby,
// degraded promote.
func TestReplicationHandlerTable(t *testing.T) {
	t.Run("in-memory node", func(t *testing.T) {
		ts, _ := newTestServer(t)
		cases := []struct {
			method, path, body string
			want               int
		}{
			{http.MethodPost, "/replication", "", http.StatusMethodNotAllowed},
			{http.MethodGet, "/replication", "", http.StatusOK},
			{http.MethodGet, "/promote", "", http.StatusMethodNotAllowed},
			{http.MethodPost, "/promote", "{}", http.StatusConflict},
			{http.MethodPost, "/replication/register", `{"advertise":"http://x","lsn":0}`, http.StatusServiceUnavailable},
			{http.MethodPost, "/replication/apply", `{"from":0}`, http.StatusConflict},
			{http.MethodPost, "/replication/install", "", http.StatusConflict},
		}
		for _, tc := range cases {
			resp := request(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		}
		if st := getReplication(t, ts.URL); st.Role != roleNone || st.Primary != nil || st.Standby != nil {
			t.Fatalf("in-memory /replication: %+v", st)
		}
	})

	t.Run("syncing standby refuses promote and writes", func(t *testing.T) {
		// A standby whose primary is unreachable; an install whose body
		// is still arriving holds it mid-install.
		s, ts, _ := newReplStandby(t, t.TempDir(), "http://127.0.0.1:1")
		pr, pw := io.Pipe()
		installed := make(chan int, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/replication/install", "application/octet-stream", pr)
			if err != nil {
				installed <- 0
				return
			}
			resp.Body.Close()
			installed <- resp.StatusCode
		}()
		if _, err := pw.Write([]byte(snapshotMagic)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); !s.stby.Status().Syncing; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("install never reached the standby")
			}
		}
		defer func() {
			pw.CloseWithError(errors.New("install abandoned"))
			<-installed
		}()
		if resp := request(t, http.MethodPost, ts.URL+"/promote", "{}"); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("promote while syncing: status %d, want 503", resp.StatusCode)
		}
		if resp := request(t, http.MethodPost, ts.URL+"/add", `{"name":"x"}`); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("add on standby: status %d, want 503", resp.StatusCode)
		} else if resp.Header.Get("Retry-After") == "" {
			t.Fatal("standby write 503 missing Retry-After")
		}
		if resp := request(t, http.MethodGet, ts.URL+"/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("syncing /readyz: status %d, want 503", resp.StatusCode)
		}
		if st := getReplication(t, ts.URL); st.Role != roleStandby || st.Standby == nil || !st.Standby.Syncing {
			t.Fatalf("syncing /replication: %+v", st)
		}
		if s.roleName() != roleStandby {
			t.Fatalf("role after refused promote: %q", s.roleName())
		}
	})

	t.Run("promote while degraded", func(t *testing.T) {
		inj := iofault.NewInjector(iofault.OS, iofault.Disarmed())
		s, ts := buildReplServer(t, t.TempDir(), inj)
		s.role.Store(roleStandby)
		s.stby = replica.NewStandby(serverEngine{s}, s.installEngine, replica.StandbyOptions{
			Primary: "http://127.0.0.1:1", Advertise: "http://unused", Logf: t.Logf,
		})
		ts.Start()
		t.Cleanup(func() { ts.Close(); s.closeEngine() })

		// Ship one real record whose WAL fsync fails: the apply errors and
		// the corpus degrades, but no install is in flight — promotion is
		// refused only because the final seal fsync cannot be trusted.
		scratch, err := tsjoin.OpenCorpus(t.TempDir(), tsjoin.CorpusOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := scratch.Add("barak obama"); err != nil {
			t.Fatal(err)
		}
		payloads, err := scratch.ShipFrom(0, 1, 0)
		if err != nil || len(payloads) != 1 {
			t.Fatalf("ship the add: %d records, %v", len(payloads), err)
		}
		scratch.Close()
		crc := crc32.Checksum(payloads[0], crc32.MakeTable(crc32.Castagnoli))
		body, _ := json.Marshal(map[string]any{
			"from":   0,
			"frames": []map[string]any{{"p": payloads[0], "c": crc}},
		})
		inj.SetPlan(iofault.Plan{FailAt: 0, Only: iofault.OpSync})
		resp := request(t, http.MethodPost, ts.URL+"/replication/apply", string(body))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("apply over failing fsync: status %d, want 500", resp.StatusCode)
		}
		if s.degraded() == nil {
			t.Fatal("corpus not degraded after failed apply fsync")
		}
		resp = request(t, http.MethodPost, ts.URL+"/promote", "{}")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("promote while degraded: status %d, want 503", resp.StatusCode)
		}
		if s.roleName() != roleStandby || s.stby.Sealed() {
			t.Fatal("failed promote must leave the standby unsealed and read-only")
		}
		// Heal and retry: promotion is retryable after recovery.
		inj.SetPlan(iofault.Disarmed())
		if err := s.corpusHandle().Recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
		if resp := request(t, http.MethodPost, ts.URL+"/promote", "{}"); resp.StatusCode != http.StatusOK {
			t.Fatalf("promote after heal: status %d, want 200", resp.StatusCode)
		}
		if s.roleName() != rolePrimary {
			t.Fatalf("role after promote: %q", s.roleName())
		}
	})
}

// TestServeFailover is the end-to-end kill-the-primary drill: seed a
// primary over HTTP, attach a standby, let it catch up, kill the
// primary, promote the standby, and check the promoted node serves the
// same answers and accepts writes at the right next id.
func TestServeFailover(t *testing.T) {
	prim, primTS, killPrimary := newReplPrimary(t, t.TempDir())

	var add struct {
		ID int `json:"id"`
	}
	names := []string{"barak obama", "barack obama", "angela merkel", "emmanuel macron", "justin trudeau"}
	for _, n := range names {
		if resp := post(t, primTS.URL+"/add", fmt.Sprintf(`{"name": %q}`, n), &add); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed add: status %d", resp.StatusCode)
		}
	}
	if resp := post(t, primTS.URL+"/delete", `{"id": 3}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed delete: status %d", resp.StatusCode)
	}

	stby, stbyTS, _ := newReplStandby(t, t.TempDir(), primTS.URL)

	// Converge: the standby registers, installs/streams to the
	// primary's LSN, and reports ready.
	deadline := time.Now().Add(10 * time.Second)
	primLSN := prim.corpusHandle().LSN()
	for {
		st := getReplication(t, stbyTS.URL)
		if st.Standby != nil && !st.Standby.Syncing && st.Standby.LSN == primLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby did not converge: %+v (primary lsn %d)", st.Standby, primLSN)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// More live traffic after convergence streams through too.
	if resp := post(t, primTS.URL+"/add", `{"name": "barak h obama"}`, &add); resp.StatusCode != http.StatusOK {
		t.Fatalf("live add: status %d", resp.StatusCode)
	}
	liveLSN := prim.corpusHandle().LSN()
	for stby.corpusHandle().LSN() != liveLSN {
		if time.Now().After(deadline) {
			t.Fatalf("standby did not catch the live tail: lsn %d, want %d", stby.corpusHandle().LSN(), liveLSN)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		if resp := request(t, http.MethodGet, stbyTS.URL+"/readyz", ""); resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The primary sees exactly one follower, caught up. The standby
	// applies a record before its ack reaches the primary, so the acked
	// LSN may trail the standby's for a moment.
	for {
		st := getReplication(t, primTS.URL)
		if st.Role == rolePrimary && st.Primary != nil &&
			len(st.Primary.Followers) == 1 && st.Primary.Followers[0].AckedLSN == liveLSN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary /replication: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Its /stats carries the follower's records per apply: the records
	// it shipped and the applies that carried them.
	var primStats struct {
		Replication *replStatus `json:"replication"`
	}
	getJSON(t, primTS.URL+"/stats", &primStats)
	if r := primStats.Replication; r == nil || r.Primary == nil || len(r.Primary.Followers) != 1 {
		t.Fatalf("primary /stats replication: %+v", r)
	} else if f := r.Primary.Followers[0]; f.Batches < 1 || f.ShippedRecords < f.Batches {
		t.Fatalf("primary /stats follower: %d records shipped in %d batches", f.ShippedRecords, f.Batches)
	}

	// Freeze the answers the promoted standby must reproduce.
	probes := []string{"barak obamma", "angela merkl", "justin trudeau"}
	want := make(map[string][]distrib.Match, len(probes))
	for _, p := range probes {
		want[p] = queryNames(t, primTS.URL, p)
	}
	nextID := prim.corpusHandle().Len()

	// Standby rejects writes while the primary lives.
	if resp := request(t, http.MethodPost, stbyTS.URL+"/add", `{"name": "nope"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby add: status %d, want 503", resp.StatusCode)
	}

	killPrimary()

	var promoted struct {
		Role string `json:"role"`
		LSN  uint64 `json:"lsn"`
	}
	if resp := post(t, stbyTS.URL+"/promote", "{}", &promoted); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if promoted.Role != rolePrimary || promoted.LSN != liveLSN {
		t.Fatalf("promote response: %+v (want lsn %d)", promoted, liveLSN)
	}
	// Promotion is idempotent.
	var again struct {
		Already bool `json:"already"`
	}
	if resp := post(t, stbyTS.URL+"/promote", "{}", &again); resp.StatusCode != http.StatusOK || !again.Already {
		t.Fatalf("second promote: status %d, already=%v", resp.StatusCode, again.Already)
	}

	// Byte-identical query answers.
	for _, p := range probes {
		got := queryNames(t, stbyTS.URL, p)
		if fmt.Sprint(got) != fmt.Sprint(want[p]) {
			t.Fatalf("promoted query %q: %v, want %v", p, got, want[p])
		}
	}
	// Writable at the exact next id, and a shipper of its own.
	if resp := post(t, stbyTS.URL+"/add", `{"name": "new after failover"}`, &add); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promote add: status %d", resp.StatusCode)
	}
	if add.ID != nextID {
		t.Fatalf("post-promote add id: %d, want %d", add.ID, nextID)
	}
	if resp := request(t, http.MethodGet, stbyTS.URL+"/readyz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted /readyz: status %d, want 200", resp.StatusCode)
	}
	st := getReplication(t, stbyTS.URL)
	if st.Role != rolePrimary || st.Primary == nil || st.Standby == nil || !st.Standby.Sealed {
		t.Fatalf("promoted /replication: %+v", st)
	}
	// /stats carries the replication section.
	var stats struct {
		Replication *replStatus `json:"replication"`
	}
	getJSON(t, stbyTS.URL+"/stats", &stats)
	if stats.Replication == nil || stats.Replication.Role != rolePrimary {
		t.Fatalf("/stats replication: %+v", stats.Replication)
	}
}

// snapshotMagic is the first bytes of every snapshot: a prefix of an
// install body, enough to hold an install in flight.
const snapshotMagic = "TSJSNAP1"

// TestReplicationInstallAfterPrimaryRestart: a primary restarted from
// its directory has an empty ship ring, so a fresh standby is seeded by
// installing its snapshot. The standby then answers queries exactly as
// the primary does, streams the live tail, and restarts from its own
// directory at the installed history, resuming from the ring without a
// second install.
func TestReplicationInstallAfterPrimaryRestart(t *testing.T) {
	primDir := t.TempDir()
	_, primTS, stopPrim := newReplPrimary(t, primDir)
	names := []string{"barak obama", "barack obama", "angela merkel", "emmanuel macron", "justin trudeau", "angela merkell"}
	for _, n := range names {
		if resp := post(t, primTS.URL+"/add", fmt.Sprintf(`{"name": %q}`, n), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed add: status %d", resp.StatusCode)
		}
	}
	if resp := post(t, primTS.URL+"/delete", `{"id": 2}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed delete: status %d", resp.StatusCode)
	}
	stopPrim()
	prim, primTS, _ := newReplPrimary(t, primDir)
	lsn := prim.corpusHandle().LSN()

	stbyDir := t.TempDir()
	stby, stbyTS, stopStby := newReplStandby(t, stbyDir, primTS.URL)
	// follower waits until the standby advertising url is caught up.
	follower := func(url string) replica.FollowerStatus {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, f := range getReplication(t, primTS.URL).Primary.Followers {
				if f.URL == url && f.State == "streaming" && f.AckedLSN == prim.corpusHandle().LSN() {
					return f
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("standby did not catch up: %+v", getReplication(t, primTS.URL).Primary)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if f := follower(stbyTS.URL); f.Resyncs != 1 || f.AckedLSN != lsn {
		t.Fatalf("follower after catch-up: %+v, want one install at lsn %d", f, lsn)
	}
	if st := stby.stby.Status(); st.Resyncs != 1 || st.AppliedRecords != 0 {
		t.Fatalf("standby after catch-up: %+v, want one install and no shipped records", st)
	}
	for _, q := range []string{"barak obamma", "angela merkl", "macron"} {
		if got, want := queryNames(t, stbyTS.URL, q), queryNames(t, primTS.URL, q); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %q: standby %v, primary %v", q, got, want)
		}
	}
	if resp := post(t, primTS.URL+"/add", `{"name": "barak h obama"}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("live add: status %d", resp.StatusCode)
	}
	follower(stbyTS.URL)

	// A restart reopens the installed directory at the installed history
	// plus the tail; the ring serves it from there.
	stopStby()
	stby, stbyTS, _ = newReplStandby(t, stbyDir, primTS.URL)
	if got := stby.corpusHandle().LSN(); got != lsn+1 {
		t.Fatalf("restarted standby at lsn %d, want %d", got, lsn+1)
	}
	if f := follower(stbyTS.URL); f.Resyncs != 0 {
		t.Fatalf("restarted standby was seeded again: %+v", f)
	}
}

// TestReplicationRefusesResyncMarker: a data directory holding a RESYNC
// file was left mid-bootstrap by an older build that seeded standbys as
// a stream of records; its LSN counts records of that stream, not of the
// primary's history. The node refuses to start on it — as a standby or
// as a primary — telling the operator to delete the directory, and so
// never registers with that LSN.
func TestReplicationRefusesResyncMarker(t *testing.T) {
	registers := 0
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		registers++
		http.Error(w, "unexpected", http.StatusServiceUnavailable)
	}))
	defer primary.Close()
	dir := t.TempDir()
	c, err := tsjoin.OpenCorpus(dir, tsjoin.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("barak obama"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := os.WriteFile(filepath.Join(dir, "RESYNC"), []byte("mid-resync\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{DataDir: dir, ReplicaOf: primary.URL, Advertise: "http://127.0.0.1:1"},
		{DataDir: dir},
	} {
		s, err := New(cfg)
		if err == nil {
			s.Close()
			t.Fatalf("started on a directory left mid-bootstrap (replica of %q)", cfg.ReplicaOf)
		}
		if !strings.Contains(err.Error(), "delete the directory") {
			t.Fatalf("refusal does not tell the operator what to do: %v", err)
		}
	}
	if registers != 0 {
		t.Fatalf("%d registrations from a refused node", registers)
	}
}
