package distrib_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/distrib"
	"repro/internal/httpx"
	"repro/internal/serve"
	"repro/internal/token"
)

// stubWorker is a scriptable worker node for failure-path tests.
type stubWorker struct {
	ts  *httptest.Server
	mux *http.ServeMux
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &stubWorker{ts: ts, mux: mux}
}

// answers wires the default happy-path handlers: /query returns no
// matches, /add assigns sequential local ids, /healthz is up.
func (s *stubWorker) answers() *stubWorker {
	next := 0
	s.mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		id := next
		next++
		json.NewEncoder(w).Encode(distrib.AddResponse{ID: id, Matches: []distrib.Match{}})
	})
	s.mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(distrib.QueryResponse{Matches: []distrib.Match{}})
	})
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

func fastOptions() distrib.Options {
	return distrib.Options{
		QueryTimeout: 300 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
		Retry:        backoff.Policy{Base: 10 * time.Millisecond, Cap: 30 * time.Millisecond},
		Heartbeat:    50 * time.Millisecond,
		FailAfter:    2,
	}
}

func coordServer(t *testing.T, pm distrib.Map, opt distrib.Options) (*distrib.Coordinator, *httptest.Server) {
	t.Helper()
	co := distrib.New(pm, opt)
	t.Cleanup(co.Close)
	cs := httptest.NewServer(serve.CoordinatorHandler(co, 0))
	t.Cleanup(cs.Close)
	return co, cs
}

func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		shards  int
		wantErr bool
		check   func(t *testing.T, m distrib.Map)
	}{
		{spec: "http://a:1", shards: 1},
		{spec: "http://a:1,http://b:2,http://c:3", shards: 3},
		{
			spec: "http://a:1|http://a2:1|http://a3:1,http://b:2/", shards: 2,
			check: func(t *testing.T, m distrib.Map) {
				if len(m.Shards[0].Standbys) != 2 || m.Shards[0].Standbys[0] != "http://a2:1" {
					t.Fatalf("standbys = %v", m.Shards[0].Standbys)
				}
				if m.Shards[1].Worker != "http://b:2" {
					t.Fatalf("trailing slash not trimmed: %q", m.Shards[1].Worker)
				}
			},
		},
		{spec: "", wantErr: true},
		{spec: "http://a:1,,http://b:2", wantErr: true},
		{spec: "|http://a:1", wantErr: true},
	} {
		m, err := distrib.ParseWorkers(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseWorkers(%q): expected error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseWorkers(%q): %v", tc.spec, err)
		}
		if len(m.Shards) != tc.shards {
			t.Fatalf("ParseWorkers(%q): %d shards, want %d", tc.spec, len(m.Shards), tc.shards)
		}
		if tc.check != nil {
			tc.check(t, m)
		}
	}
}

func TestOwnerOfIsTokenOrderInsensitive(t *testing.T) {
	m := distrib.Map{Shards: make([]distrib.Shard, 5)}
	for _, tc := range [][2]string{
		{"john h smith", "smith, john H"},
		{"maria de la cruz", "DE LA cruz maria"},
	} {
		a := m.OwnerOf(tc[0], token.WhitespaceAndPunct)
		b := m.OwnerOf(tc[1], token.WhitespaceAndPunct)
		if a != b {
			t.Fatalf("OwnerOf(%q)=%d but OwnerOf(%q)=%d: routing must follow the token multiset", tc[0], a, tc[1], b)
		}
		if a < 0 || a >= 5 {
			t.Fatalf("owner %d out of range", a)
		}
	}
	// Token-less names still route deterministically.
	if o := m.OwnerOf("...", token.WhitespaceAndPunct); o < 0 || o >= 5 {
		t.Fatalf("token-less owner %d out of range", o)
	}
}

// TestCoordinatorEndpointErrors is the table-driven contract for every
// coordinator endpoint's request validation.
func TestCoordinatorEndpointErrors(t *testing.T) {
	w0 := newStubWorker(t).answers()
	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: w0.ts.URL}}}, fastOptions())

	for _, tc := range []struct {
		name     string
		method   string
		path     string
		body     string
		header   map[string]string
		wantCode int
		wantBody string
	}{
		{name: "add GET", method: http.MethodGet, path: "/add", wantCode: http.StatusMethodNotAllowed},
		{name: "add bad json", method: http.MethodPost, path: "/add", body: "{", wantCode: http.StatusBadRequest},
		{name: "add unknown field", method: http.MethodPost, path: "/add", body: `{"nom":"x"}`, wantCode: http.StatusBadRequest},
		{name: "add oversized body", method: http.MethodPost, path: "/add", body: `{"name":"` + strings.Repeat("a", httpx.MaxBodyBytes+16) + `"}`, wantCode: http.StatusRequestEntityTooLarge},
		{name: "query GET", method: http.MethodGet, path: "/query", wantCode: http.StatusMethodNotAllowed},
		{name: "delete missing id", method: http.MethodPost, path: "/delete", body: `{}`, wantCode: http.StatusBadRequest, wantBody: "missing id"},
		{name: "delete unknown id", method: http.MethodPost, path: "/delete", body: `{"id":7}`, wantCode: http.StatusBadRequest, wantBody: "no string with id 7"},
		{name: "cluster POST", method: http.MethodPost, path: "/cluster", wantCode: http.StatusMethodNotAllowed},
		{name: "stats POST", method: http.MethodPost, path: "/stats", wantCode: http.StatusMethodNotAllowed},
		{name: "selfjoin bad threshold", method: http.MethodPost, path: "/cluster/selfjoin", body: `{"threshold":1.5}`, wantCode: http.StatusBadRequest},
		{name: "bad epoch header", method: http.MethodPost, path: "/query", body: `{"name":"x"}`, header: map[string]string{distrib.EpochHeader: "zebra"}, wantCode: http.StatusBadRequest},
		{name: "healthz", method: http.MethodGet, path: "/healthz", wantCode: http.StatusOK},
		{name: "readyz", method: http.MethodGet, path: "/readyz", wantCode: http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, cs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf strings.Builder
			if _, err := fmt.Fprint(&buf, readBody(t, resp)); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.wantCode, buf.String())
			}
			if tc.wantBody != "" && !strings.Contains(buf.String(), tc.wantBody) {
				t.Fatalf("body %q missing %q", buf.String(), tc.wantBody)
			}
		})
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestCoordinatorStaleEpoch: a stamped request with a stale epoch gets
// 409 plus the current map; restamping with the refreshed epoch
// succeeds. Failover is the only thing that bumps the epoch, so the
// test drives one: the worker dies under a standby that accepts
// promotion.
func TestCoordinatorStaleEpoch(t *testing.T) {
	w0 := newStubWorker(t)
	w0.ts.Close()
	standby := newStubWorker(t).answers()
	standby.mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"role": "primary"})
	})
	co, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: w0.ts.URL, Standbys: []string{standby.ts.URL}}}}, fastOptions())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for co.Status().Shards[0].Failovers != 1 {
		if ctx.Err() != nil {
			t.Fatal("heartbeats never failed the shard over")
		}
		co.CheckNow(ctx)
	}

	do := func(epoch string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodPost, cs.URL+"/query", strings.NewReader(`{"name":"x"}`))
		req.Header.Set(distrib.EpochHeader, epoch)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		resp.Body.Close()
		return resp, body
	}

	resp, body := do("0")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch: status %d, want 409 (%s)", resp.StatusCode, body)
	}
	var stale distrib.StaleEpochResponse
	if err := json.Unmarshal([]byte(body), &stale); err != nil {
		t.Fatalf("409 body is not a StaleEpochResponse: %v (%s)", err, body)
	}
	if stale.Cluster.Epoch != 1 || len(stale.Cluster.Shards) != 1 {
		t.Fatalf("409 carries cluster %+v, want epoch 1 with the shard map", stale.Cluster)
	}

	// One round trip refreshed the client: the carried epoch now works.
	resp, body = do(fmt.Sprint(stale.Cluster.Epoch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refreshed epoch: status %d, want 200 (%s)", resp.StatusCode, body)
	}
	if got := co.Status().Epoch; got != 1 {
		t.Fatalf("Status().Epoch = %d, want 1", got)
	}
}

// TestCoordinatorQueryPartialFailure: with a dead worker the default
// query fails closed (503 naming the missing shards) and ?partial=true
// returns the survivors plus missing_shards.
func TestCoordinatorQueryPartialFailure(t *testing.T) {
	up := newStubWorker(t).answers()
	down := newStubWorker(t)
	down.ts.Close() // connection refused from the start
	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: up.ts.URL}, {Worker: down.ts.URL}}}, fastOptions())

	code, body := postRaw(t, cs.URL+"/query", distrib.QueryRequest{Name: "jane doe"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed query: status %d, want 503 (%s)", code, body)
	}
	var failClosed struct {
		Error         string `json:"error"`
		MissingShards []int  `json:"missing_shards"`
	}
	if err := json.Unmarshal(body, &failClosed); err != nil {
		t.Fatalf("503 body: %v (%s)", err, body)
	}
	if len(failClosed.MissingShards) != 1 || failClosed.MissingShards[0] != 1 {
		t.Fatalf("missing_shards = %v, want [1]", failClosed.MissingShards)
	}

	code, body = postRaw(t, cs.URL+"/query?partial=true", distrib.QueryRequest{Name: "jane doe"})
	if code != http.StatusOK {
		t.Fatalf("partial query: status %d, want 200 (%s)", code, body)
	}
	var qr distrib.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.MissingShards) != 1 || qr.MissingShards[0] != 1 {
		t.Fatalf("partial missing_shards = %v, want [1]", qr.MissingShards)
	}
	if qr.Matches == nil {
		t.Fatalf("partial matches must be [] on the wire, got null")
	}
}

// TestCoordinatorQuerySlowWorker: a worker that answers after the
// scatter deadline counts as missing, not as a hang.
func TestCoordinatorQuerySlowWorker(t *testing.T) {
	up := newStubWorker(t).answers()
	slow := newStubWorker(t)
	release := make(chan struct{})
	slow.mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	t.Cleanup(func() { close(release) }) // before the stub server's cleanup waits on the handler
	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: up.ts.URL}, {Worker: slow.ts.URL}}}, fastOptions())

	start := time.Now()
	code, body := postRaw(t, cs.URL+"/query?partial=true", distrib.QueryRequest{Name: "jane doe"})
	if code != http.StatusOK {
		t.Fatalf("status %d (%s)", code, body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("query took %v: the slow worker leaked past the scatter deadline", elapsed)
	}
	var qr distrib.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.MissingShards) != 1 || qr.MissingShards[0] != 1 {
		t.Fatalf("missing_shards = %v, want [1]", qr.MissingShards)
	}
}

// TestCoordinatorQueryHedgesSlowPrimary: a primary whose /query stalls
// past the per-attempt slice is hedged to its standby, which holds the
// same history: the default fail-closed query answers 200 with the
// standby's matches and no missing shard, inside QueryTimeout.
func TestCoordinatorQueryHedgesSlowPrimary(t *testing.T) {
	primary := newStubWorker(t)
	primary.mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(distrib.AddResponse{ID: 0, Matches: []distrib.Match{}})
	})
	release := make(chan struct{})
	primary.mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		<-release
	})
	defer close(release) // before the stub servers' cleanup waits on the handler
	standby := newStubWorker(t)
	standby.mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(distrib.QueryResponse{Matches: []distrib.Match{{ID: 0, SLD: 1, NSLD: 0.1}}})
	})
	opt := fastOptions()
	opt.QueryTimeout = time.Second
	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: primary.ts.URL, Standbys: []string{standby.ts.URL}}}}, opt)
	mustPost(t, cs.URL+"/add", distrib.AddRequest{Name: "jane doe"}, nil)

	start := time.Now()
	code, body := postRaw(t, cs.URL+"/query", distrib.QueryRequest{Name: "jane do"})
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 from the standby", code, body)
	}
	if elapsed > opt.QueryTimeout {
		t.Fatalf("query took %v, past the %v QueryTimeout", elapsed, opt.QueryTimeout)
	}
	var qr distrib.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.MissingShards) != 0 {
		t.Fatalf("missing_shards = %v, want none", qr.MissingShards)
	}
	if len(qr.Matches) != 1 || qr.Matches[0] != (distrib.Match{ID: 0, SLD: 1, NSLD: 0.1}) {
		t.Fatalf("matches = %+v, want the standby's one match", qr.Matches)
	}
}

// TestCoordinatorDetectsOutOfBandWrites: a worker whose local id stream
// disagrees with the coordinator's table is a corrupted routing state,
// surfaced as 502 — never silently re-mapped.
func TestCoordinatorDetectsOutOfBandWrites(t *testing.T) {
	rogue := newStubWorker(t)
	rogue.mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(distrib.AddResponse{ID: 5, Matches: []distrib.Match{}})
	})
	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: rogue.ts.URL}}}, fastOptions())

	code, body := postRaw(t, cs.URL+"/add", distrib.AddRequest{Name: "jane doe"})
	if code != http.StatusBadGateway || !strings.Contains(string(body), "out-of-band") {
		t.Fatalf("status %d (%s), want 502 out-of-band", code, body)
	}
}

// TestCoordinatorQueryDropsUnregisteredMatch: a query racing an
// in-flight add can see a worker match whose global id is not assigned
// yet. That match is dropped (the query serializes before the add), NOT
// treated as out-of-band corruption; registered matches still answer.
func TestCoordinatorQueryDropsUnregisteredMatch(t *testing.T) {
	w := newStubWorker(t)
	next := 0
	w.mux.HandleFunc("/add", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(distrib.AddResponse{ID: next, Matches: []distrib.Match{}})
		next++
	})
	w.mux.HandleFunc("/query", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(distrib.QueryResponse{Matches: []distrib.Match{
			{ID: 0, SLD: 1, NSLD: 0.05},
			{ID: 7, SLD: 2, NSLD: 0.09}, // committed by a racing add, not yet registered
		}})
	})
	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: w.ts.URL}}}, fastOptions())

	mustPost(t, cs.URL+"/add", distrib.AddRequest{Name: "jane doe"}, nil)
	var qr distrib.QueryResponse
	code, body := postRaw(t, cs.URL+"/query", distrib.QueryRequest{Name: "jane d"})
	if code != http.StatusOK {
		t.Fatalf("query status %d (%s), want 200", code, body)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != 1 || qr.Matches[0].ID != 0 {
		t.Fatalf("matches %+v, want only registered global id 0", qr.Matches)
	}
}

// TestCoordinatorFailover: heartbeats detect the dead worker, the first
// promotable standby is promoted (a syncing one is skipped), the map is
// repointed with the old primary demoted to the chain tail, and the
// epoch bumps.
func TestCoordinatorFailover(t *testing.T) {
	dead := newStubWorker(t)
	dead.ts.Close()

	syncing := newStubWorker(t)
	syncing.mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "standby is still syncing", http.StatusServiceUnavailable)
	})

	promoted := 0
	ready := newStubWorker(t).answers()
	ready.mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		promoted++
		json.NewEncoder(w).Encode(map[string]any{"role": "primary", "lsn": 42})
	})

	opt := fastOptions()
	co, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{
		Worker:   dead.ts.URL,
		Standbys: []string{syncing.ts.URL, ready.ts.URL},
	}}}, opt)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < opt.FailAfter; i++ {
		co.CheckNow(ctx)
	}

	st := co.Status()
	sh := st.Shards[0]
	if sh.Worker != ready.ts.URL {
		t.Fatalf("worker = %s, want promoted standby %s", sh.Worker, ready.ts.URL)
	}
	if len(sh.Standbys) != 2 || sh.Standbys[0] != syncing.ts.URL || sh.Standbys[1] != dead.ts.URL {
		t.Fatalf("standbys = %v, want [syncing, demoted old primary]", sh.Standbys)
	}
	if !sh.Alive || sh.Failovers != 1 || st.Epoch != 1 {
		t.Fatalf("post-failover status: %+v epoch %d, want alive, 1 failover, epoch 1", sh, st.Epoch)
	}
	if promoted != 1 {
		t.Fatalf("promote called %d times, want 1", promoted)
	}

	// The shard serves again through the promoted worker.
	var qr distrib.QueryResponse
	mustPost(t, cs.URL+"/query", distrib.QueryRequest{Name: "jane doe"}, &qr)

	// A second round keeps the now-healthy shard untouched.
	co.CheckNow(ctx)
	if st := co.Status(); st.Epoch != 1 || st.Shards[0].Failovers != 1 {
		t.Fatalf("healthy shard churned: %+v", st)
	}
}

// TestCoordinatorReadyzReportsDeadShard: /readyz flips to 503 while a
// shard has no live worker and no promotable standby.
func TestCoordinatorReadyzReportsDeadShard(t *testing.T) {
	dead := newStubWorker(t)
	dead.ts.Close()
	opt := fastOptions()
	co, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{{Worker: dead.ts.URL}}}, opt)

	ctx := context.Background()
	for i := 0; i < opt.FailAfter; i++ {
		co.CheckNow(ctx)
	}
	resp, err := http.Get(cs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead shard: status %d, want 503", resp.StatusCode)
	}
}

// TestCoordinatorStatsAggregates: /stats folds every reachable worker's
// funnel and reports per-worker rows, marking unreachable workers.
func TestCoordinatorStatsAggregates(t *testing.T) {
	w0 := newStubWorker(t)
	w0.mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(distrib.WorkerStats{Strings: 3, Shards: 2, Adds: 3, Queries: 7, TokensPerShard: []int{4, 2}})
	})
	w1 := newStubWorker(t)
	w1.mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(distrib.WorkerStats{Strings: 2, Shards: 2, Adds: 2, Queries: 1, TokensPerShard: []int{1, 5}})
	})
	down := newStubWorker(t)
	down.ts.Close()

	_, cs := coordServer(t, distrib.Map{Shards: []distrib.Shard{
		{Worker: w0.ts.URL}, {Worker: w1.ts.URL}, {Worker: down.ts.URL},
	}}, fastOptions())

	resp, err := http.Get(cs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st distrib.ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster.Strings != 5 || st.Cluster.Shards != 4 || st.Cluster.Adds != 5 || st.Cluster.Queries != 8 {
		t.Fatalf("aggregate = %+v, want strings 5, shards 4, adds 5, queries 8", st.Cluster)
	}
	if len(st.Cluster.TokensPerShard) != 4 {
		t.Fatalf("aggregate tokens_per_shard = %v, want 4 entries", st.Cluster.TokensPerShard)
	}
	if len(st.Workers) != 3 {
		t.Fatalf("%d worker rows, want 3", len(st.Workers))
	}
	if !st.Workers[0].Alive || !st.Workers[1].Alive || st.Workers[2].Alive {
		t.Fatalf("alive flags = %v %v %v, want true true false", st.Workers[0].Alive, st.Workers[1].Alive, st.Workers[2].Alive)
	}
	if st.Workers[2].Error == "" {
		t.Fatalf("unreachable worker row carries no error")
	}
}
