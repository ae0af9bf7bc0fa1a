package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	tsjoin "repro"
	"repro/internal/backoff"
	"repro/internal/distrib"
	"repro/internal/httpx"
	"repro/internal/namegen"
)

// TestClusterE2E is the scale-out drill from ISSUE PR 9: one
// coordinator over two real tsjserve workers (worker 0 with a live
// replication standby), add/query/join traffic checked against a
// single-node reference, then the kill-a-worker sequence — the hedged
// scatter keeps answering through the warm standby, the heartbeat loop
// detects the death and promotes the standby for real (tsjserve POST
// /promote), the partition map is repointed, and post-failover queries
// and writes still match the single node byte for byte.
func TestClusterE2E(t *testing.T) {
	// Two durable workers; worker 0 ships to a warm standby.
	prim0, ts0, kill0 := newReplPrimary(t, t.TempDir())
	stby0, stbyTS, _ := newReplStandby(t, t.TempDir(), ts0.URL)
	_, ts1, _ := newReplPrimary(t, t.TempDir())

	pm := distrib.Map{Shards: []distrib.Shard{
		{Worker: ts0.URL, Standbys: []string{"http://" + stbyTS.Listener.Addr().String()}},
		{Worker: ts1.URL},
	}}
	co := distrib.New(pm, distrib.Options{
		QueryTimeout: 3 * time.Second,
		WriteTimeout: 5 * time.Second,
		Retry:        backoff.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
		Heartbeat:    25 * time.Millisecond,
		FailAfter:    2,
		Logf:         t.Logf,
	})
	t.Cleanup(co.Close)
	cs := httptest.NewServer(CoordinatorHandler(co, 0))
	t.Cleanup(cs.Close)

	// Single-node reference with the workers' matcher options
	// (buildReplServer: threshold 0.2, 2 shards).
	ref, err := tsjoin.NewConcurrentMatcher(tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
		Shards:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)

	sameJSON := func(what string, got []byte, want any) {
		t.Helper()
		exp, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(got), exp) {
			t.Fatalf("%s diverged from single node:\n  cluster: %s\n  single:  %s", what, bytes.TrimSpace(got), exp)
		}
	}
	postJSON := func(path string, in any) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(cs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	all := namegen.Generate(namegen.Config{Seed: 41, NumNames: 48})
	seq, batch, probes := all[:32], all[32:40], all[40:]

	// ---- Adds + one /join batch, checked against the single node ------
	anyMatch := false
	for _, name := range seq {
		code, body := postJSON("/add", map[string]string{"name": name})
		if code != http.StatusOK {
			t.Fatalf("add %q: status %d: %s", name, code, body)
		}
		id, ms := ref.Add(name)
		anyMatch = anyMatch || len(ms) > 0
		sameJSON(fmt.Sprintf("add %q", name), body, struct {
			ID      int             `json:"id"`
			Matches []distrib.Match `json:"matches"`
		}{id, distrib.Matches(ms)})
	}
	code, body := postJSON("/join", map[string][]string{"names": batch})
	if code != http.StatusOK {
		t.Fatalf("join: status %d: %s", code, body)
	}
	first, mss := ref.AddAll(batch)
	type joinResult struct {
		ID      int             `json:"id"`
		Matches []distrib.Match `json:"matches"`
	}
	var wantResults []joinResult
	for i, ms := range mss {
		anyMatch = anyMatch || len(ms) > 0
		wantResults = append(wantResults, joinResult{ID: first + i, Matches: distrib.Matches(ms)})
	}
	sameJSON("join batch", body, struct {
		First   int          `json:"first"`
		Results []joinResult `json:"results"`
	}{first, wantResults})
	if !anyMatch {
		t.Fatal("degenerate workload: no add/join produced matches")
	}

	// ---- Distributed self-join over the real workers ------------------
	// (before any delete, so global ids are exactly slice indices).
	wantPairs, err := tsjoin.SelfJoin(append(append([]string{}, seq...), batch...), tsjoin.Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(wantPairs, func(i, j int) bool {
		if wantPairs[i].A != wantPairs[j].A {
			return wantPairs[i].A < wantPairs[j].A
		}
		return wantPairs[i].B < wantPairs[j].B
	})
	if len(wantPairs) == 0 {
		t.Fatal("degenerate workload: single-node self-join is empty")
	}
	code, body = postJSON("/cluster/selfjoin", map[string]float64{"threshold": 0.2})
	if code != http.StatusOK {
		t.Fatalf("cluster selfjoin: status %d: %s", code, body)
	}
	var gotPairs distrib.PairsResponse
	if err := json.Unmarshal(body, &gotPairs); err != nil {
		t.Fatal(err)
	}
	wirePairs := make([]distrib.Pair, 0, len(wantPairs))
	for _, p := range wantPairs {
		wirePairs = append(wirePairs, distrib.Pair{A: p.A, B: p.B, SLD: p.SLD, NSLD: p.NSLD})
	}
	gp, _ := json.Marshal(gotPairs.Pairs)
	wp, _ := json.Marshal(wirePairs)
	if !bytes.Equal(gp, wp) {
		t.Fatalf("distributed self-join diverged:\n  cluster: %s\n  single:  %s", gp, wp)
	}

	// ---- Delete + queries ---------------------------------------------
	if code, body := postJSON("/delete", map[string]int{"id": 5}); code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", code, body)
	}
	if err := ref.Delete(5); err != nil {
		t.Fatal(err)
	}
	queryAll := func(stage string) {
		t.Helper()
		got := false
		for _, name := range probes {
			code, body := postJSON("/query", map[string]string{"name": name})
			if code != http.StatusOK {
				t.Fatalf("%s query %q: status %d: %s", stage, name, code, body)
			}
			ms := ref.Query(name)
			got = got || len(ms) > 0
			sameJSON(fmt.Sprintf("%s query %q", stage, name), body, struct {
				Matches []distrib.Match `json:"matches"`
			}{distrib.Matches(ms)})
		}
		if !got {
			t.Fatalf("%s: no probe matched — equivalence not exercised", stage)
		}
	}
	queryAll("pre-failover")

	// ---- Let the standby catch worker 0's full history ----------------
	deadline := time.Now().Add(10 * time.Second)
	lsn0 := prim0.corpusHandle().LSN()
	for {
		st := getReplication(t, "http://"+stbyTS.Listener.Addr().String())
		if st.Standby != nil && !st.Standby.Syncing && st.Standby.LSN == lsn0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby did not converge: %+v (primary lsn %d)", st.Standby, lsn0)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// ---- Kill worker 0: hedged reads continue through the standby -----
	kill0()
	queryAll("post-kill (hedged to warm standby)")

	// ---- Heartbeats detect the death and promote the standby ----------
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	deadline = time.Now().Add(10 * time.Second)
	for co.Status().Shards[0].Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat loop never promoted the standby")
		}
		co.CheckNow(ctx)
		time.Sleep(time.Millisecond)
	}
	st := co.Status()
	sh := st.Shards[0]
	wantWorker := "http://" + stbyTS.Listener.Addr().String()
	if sh.Worker != wantWorker {
		t.Fatalf("partition map not repointed: worker %s, want promoted standby %s", sh.Worker, wantWorker)
	}
	if !sh.Alive || st.Epoch != 1 || len(sh.Standbys) != 1 || sh.Standbys[0] != ts0.URL {
		t.Fatalf("post-failover shard: %+v epoch %d, want alive, epoch 1, old primary demoted", sh, st.Epoch)
	}
	if stby0.roleName() != rolePrimary {
		t.Fatalf("standby role after coordinator promotion: %q, want %q", stby0.roleName(), rolePrimary)
	}

	// ---- The cluster serves full, correct results after failover ------
	queryAll("post-failover")
	for _, name := range []string{probes[0] + " jr", probes[1] + " ii"} {
		code, body := postJSON("/add", map[string]string{"name": name})
		if code != http.StatusOK {
			t.Fatalf("post-failover add %q: status %d: %s", name, code, body)
		}
		id, ms := ref.Add(name)
		sameJSON(fmt.Sprintf("post-failover add %q", name), body, struct {
			ID      int             `json:"id"`
			Matches []distrib.Match `json:"matches"`
		}{id, distrib.Matches(ms)})
	}

	// ---- Aggregated cluster /stats ------------------------------------
	var cstats distrib.ClusterStats
	getJSON(t, cs.URL+"/stats", &cstats)
	if len(cstats.Workers) != 2 || !cstats.Workers[0].Alive || !cstats.Workers[1].Alive {
		t.Fatalf("cluster stats workers: %+v", cstats.Workers)
	}
	sum := 0
	for _, row := range cstats.Workers {
		if row.Stats != nil {
			sum += row.Stats.Strings
		}
	}
	if cstats.Cluster.Strings != sum || sum == 0 {
		t.Fatalf("aggregated strings %d, per-worker sum %d", cstats.Cluster.Strings, sum)
	}
	if cstats.Epoch != 1 {
		t.Fatalf("cluster stats epoch %d, want 1", cstats.Epoch)
	}
}

// TestCoordinatorLifecycle: a coordinator serves under the node's
// request lifecycle. With -max-inflight 1 and one /query held open on
// its worker, a second concurrent /query is shed with 503 + Retry-After
// and counted under endpoints.query.shed on the coordinator's /stats,
// and latency.query.count counts exactly the queries it served.
func TestCoordinatorLifecycle(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var queries atomic.Int64
	worker := http.NewServeMux()
	worker.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if queries.Add(1) == 1 {
			close(entered)
			<-release
		}
		httpx.WriteJSON(w, distrib.QueryResponse{Matches: []distrib.Match{}})
	})
	ws := httptest.NewServer(worker)
	t.Cleanup(ws.Close)
	co := distrib.New(distrib.Map{Shards: []distrib.Shard{{Worker: ws.URL}}}, distrib.Options{QueryTimeout: 10 * time.Second})
	t.Cleanup(co.Close)
	cs := httptest.NewServer(CoordinatorHandler(co, 1))
	t.Cleanup(cs.Close)

	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(cs.URL+"/query", "application/json", strings.NewReader(`{"name": "jane doe"}`))
		if err != nil {
			t.Error(err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	<-entered
	resp := request(t, http.MethodPost, cs.URL+"/query", `{"name": "john doe"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query over the limit: status %d, Retry-After %q; want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	var st struct {
		Latency   map[string]wireLatency  `json:"latency"`
		Endpoints map[string]wireEndpoint `json:"endpoints"`
	}
	getJSON(t, cs.URL+"/stats", &st)
	if got := st.Endpoints["query"].Shed; got != 1 {
		t.Fatalf("endpoints.query.shed = %d, want 1", got)
	}

	close(release)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held query: status %d, want 200", code)
	}
	if resp := request(t, http.MethodPost, cs.URL+"/query", `{"name": "jane doe"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after release: status %d, want 200", resp.StatusCode)
	}
	getJSON(t, cs.URL+"/stats", &st)
	if got := st.Latency["query"].Count; got != 2 {
		t.Fatalf("latency.query.count = %d, want the 2 queries served", got)
	}
}

// TestCoordinatorRelaysWorkerVerdict: a worker's error answer reaches the
// client through a coordinator unchanged. An add, then a double delete
// of id 0, answers exactly the status, body and content type a single
// node answers, not the worker's text under a second "delete: " prefix.
func TestCoordinatorRelaysWorkerVerdict(t *testing.T) {
	type answer struct {
		code        int
		body, ctype string
	}
	drive := func(base string) []answer {
		var out []answer
		for _, step := range []struct{ path, body string }{
			{"/add", `{"name": "jane doe"}`},
			{"/delete", `{"id": 0}`},
			{"/delete", `{"id": 0}`},
		} {
			resp, err := http.Post(base+step.path, "application/json", strings.NewReader(step.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, answer{resp.StatusCode, string(body), resp.Header.Get("Content-Type")})
		}
		return out
	}
	node, _ := newTestServer(t)
	want := drive(node.URL)
	if last := want[len(want)-1]; last.code != http.StatusBadRequest {
		t.Fatalf("single node double delete: %+v, want 400", last)
	}

	worker, _ := newTestServer(t)
	co := distrib.New(distrib.Map{Shards: []distrib.Shard{{Worker: worker.URL}}}, distrib.Options{})
	t.Cleanup(co.Close)
	cs := httptest.NewServer(CoordinatorHandler(co, 0))
	t.Cleanup(cs.Close)
	got := drive(cs.URL)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d through the coordinator: %+v; single node: %+v", i, got[i], want[i])
		}
	}
}
