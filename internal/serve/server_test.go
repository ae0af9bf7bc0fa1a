package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	tsjoin "repro"
	"repro/internal/distrib"
	"repro/internal/httpx"
	"repro/internal/iofault"
)

func newTestServer(t *testing.T) (*httptest.Server, *tsjoin.ConcurrentMatcher) {
	t.Helper()
	m, err := tsjoin.NewConcurrentMatcher(tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
		Shards:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ts := httptest.NewServer(newServer(m, nil, 0).Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

// newDurableTestServer builds a server backed by a persistent corpus in
// dir. The returned shutdown runs the graceful sequence (drain, close
// matcher, flush and close the corpus WAL) and is idempotent; it is also
// registered as a cleanup.
func newDurableTestServer(t *testing.T, dir string) (*httptest.Server, *tsjoin.ConcurrentMatcher, *tsjoin.Corpus, func()) {
	t.Helper()
	c, err := tsjoin.OpenCorpus(dir, tsjoin.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tsjoin.NewConcurrentMatcherFromCorpus(c, tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
		Shards:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(m, c, 0).Handler())
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		ts.Close()
		m.Close()
		c.Close()
	}
	t.Cleanup(shutdown)
	return ts, m, c, shutdown
}

func post(t *testing.T, url, body string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestServeAddQueryStats(t *testing.T) {
	ts, _ := newTestServer(t)

	var add struct {
		ID      int             `json:"id"`
		Matches []distrib.Match `json:"matches"`
	}
	post(t, ts.URL+"/add", `{"name": "barak obama"}`, &add)
	if add.ID != 0 || len(add.Matches) != 0 {
		t.Fatalf("first add: %+v", add)
	}
	post(t, ts.URL+"/add", `{"name": "barak obamma"}`, &add)
	if add.ID != 1 || len(add.Matches) != 1 || add.Matches[0].ID != 0 {
		t.Fatalf("second add must match the first: %+v", add)
	}

	var query struct {
		Matches []distrib.Match `json:"matches"`
	}
	post(t, ts.URL+"/query", `{"name": "barrak obama"}`, &query)
	if len(query.Matches) != 2 {
		t.Fatalf("query must match both variants: %+v", query)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Strings int   `json:"strings"`
		Shards  int   `json:"shards"`
		Adds    int64 `json:"adds"`
		Queries int64 `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Strings != 2 || stats.Shards != 3 || stats.Adds != 2 || stats.Queries != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestServeStatsFilterTelemetry: /stats carries the filter-funnel and
// stage-timing fields — verified/budget_pruned/prefix_pruned counters, the
// signature pre-pass's share of budget_pruned, and the
// candidate-generation and verify wall clocks.
func TestServeStatsFilterTelemetry(t *testing.T) {
	ts, _ := newTestServer(t)
	// Enough near-duplicate traffic to exercise generation + verification,
	// plus candidates (a shared token, equal token lengths) that only the
	// signature pre-pass rejects.
	post(t, ts.URL+"/join",
		`{"names": ["maria del carmen", "maria del karmen", "mario del carmen", "jo ng", "bob", "maria qwk zxvybn"]}`, nil)
	post(t, ts.URL+"/query", `{"name": "maria del carmen"}`, nil)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Verified         int64    `json:"verified"`
		BudgetPruned     *int64   `json:"budget_pruned"`
		PrefixPruned     *int64   `json:"prefix_pruned"`
		SegPrefixPruned  *int64   `json:"seg_prefix_pruned"`
		SegKeysProbed    *int64   `json:"seg_keys_probed"`
		SegTokensChecked *int64   `json:"seg_tokens_checked"`
		SegTokensSimilar *int64   `json:"seg_tokens_similar"`
		SigPruned        *int64   `json:"sig_pruned"`
		CandGenWallMs    *float64 `json:"cand_gen_wall_ms"`
		VerifyWallMs     *float64 `json:"verify_wall_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.BudgetPruned == nil || stats.PrefixPruned == nil {
		t.Fatal("/stats missing budget_pruned or prefix_pruned")
	}
	if stats.SegPrefixPruned == nil || stats.SegKeysProbed == nil ||
		stats.SegTokensChecked == nil || stats.SegTokensSimilar == nil {
		t.Fatal("/stats missing segment-probe funnel counters")
	}
	if *stats.SegKeysProbed == 0 {
		t.Fatal("seg_keys_probed not populated by the near-duplicate traffic")
	}
	if stats.SigPruned == nil {
		t.Fatal("/stats missing sig_pruned")
	}
	if !(0 < *stats.SigPruned && *stats.SigPruned <= *stats.BudgetPruned) {
		t.Fatalf("sig_pruned = %d, budget_pruned = %d: want 0 < sig_pruned <= budget_pruned",
			*stats.SigPruned, *stats.BudgetPruned)
	}
	if stats.CandGenWallMs == nil || stats.VerifyWallMs == nil {
		t.Fatal("/stats missing cand_gen_wall_ms or verify_wall_ms")
	}
	if stats.Verified == 0 {
		t.Fatal("verified count not populated by the join traffic")
	}
	if *stats.CandGenWallMs <= 0 {
		t.Fatalf("cand_gen_wall_ms = %v, want > 0 after traffic", *stats.CandGenWallMs)
	}
	if *stats.VerifyWallMs <= 0 {
		t.Fatalf("verify_wall_ms = %v, want > 0 after traffic", *stats.VerifyWallMs)
	}
}

func TestServeJoinBatch(t *testing.T) {
	ts, m := newTestServer(t)
	var join struct {
		First   int `json:"first"`
		Results []struct {
			ID      int             `json:"id"`
			Matches []distrib.Match `json:"matches"`
		} `json:"results"`
	}
	post(t, ts.URL+"/join", `{"names": ["john smith", "jon smith", "ann lee"]}`, &join)
	if join.First != 0 || len(join.Results) != 3 {
		t.Fatalf("join: %+v", join)
	}
	if got := join.Results[1]; got.ID != 1 || len(got.Matches) != 1 || got.Matches[0].ID != 0 {
		t.Fatalf("batch element must match earlier batch element: %+v", got)
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d after join", m.Len())
	}
}

// TestServeDelete: /delete tombstones a string live; bad ids are 400s.
func TestServeDelete(t *testing.T) {
	ts, m := newTestServer(t)
	post(t, ts.URL+"/join", `{"names": ["john smith", "jon smith"]}`, nil)
	var del struct {
		Deleted int `json:"deleted"`
	}
	if resp := post(t, ts.URL+"/delete", `{"id": 0}`, &del); resp.StatusCode != http.StatusOK || del.Deleted != 0 {
		t.Fatalf("/delete: status %d, body %+v", resp.StatusCode, del)
	}
	if got := m.Query("jon smith"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("deleted string still matching: %v", got)
	}
	if resp := post(t, ts.URL+"/delete", `{"id": 0}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double delete: status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/delete", `{}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing id: status %d", resp.StatusCode)
	}
}

// TestServeLatencyHistograms: /stats carries per-endpoint p50/p95/p99
// latency summaries populated by traffic.
func TestServeLatencyHistograms(t *testing.T) {
	ts, _ := newTestServer(t)
	post(t, ts.URL+"/add", `{"name": "maria del carmen"}`, nil)
	post(t, ts.URL+"/add", `{"name": "maria del karmen"}`, nil)
	post(t, ts.URL+"/query", `{"name": "mario del carmen"}`, nil)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Latency map[string]struct {
			Count  int64    `json:"count"`
			P50Ms  *float64 `json:"p50_ms"`
			P95Ms  *float64 `json:"p95_ms"`
			P99Ms  *float64 `json:"p99_ms"`
			MeanMs *float64 `json:"mean_ms"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"add", "query", "join", "delete", "snapshot"} {
		if _, ok := stats.Latency[ep]; !ok {
			t.Fatalf("/stats latency missing endpoint %q", ep)
		}
	}
	add := stats.Latency["add"]
	if add.Count != 2 {
		t.Fatalf("add latency count = %d, want 2", add.Count)
	}
	if add.P50Ms == nil || add.P95Ms == nil || add.P99Ms == nil || add.MeanMs == nil {
		t.Fatal("latency quantile fields missing")
	}
	if *add.P99Ms < *add.P50Ms {
		t.Fatalf("p99 (%v) below p50 (%v)", *add.P99Ms, *add.P50Ms)
	}
	if *add.MeanMs <= 0 {
		t.Fatalf("mean_ms = %v, want > 0 after traffic", *add.MeanMs)
	}
	if stats.Latency["query"].Count != 1 || stats.Latency["join"].Count != 0 {
		t.Fatalf("per-endpoint counts wrong: %+v", stats.Latency)
	}
}

// TestServeSnapshotRequiresData: without -data, /snapshot is a 409.
func TestServeSnapshotRequiresData(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp := post(t, ts.URL+"/snapshot", `{}`, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("/snapshot without a corpus: status %d, want 409", resp.StatusCode)
	}
}

// TestServeDurableWarmRestart is the serving-layer acceptance test:
// populate a -data server, snapshot over HTTP, keep writing, kill it,
// bring up a fresh server on the same directory — the index must be
// restored from snapshot + WAL (same ids) and answer queries exactly as
// before.
func TestServeDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ts, _, _, shutdown := newDurableTestServer(t, dir)

	var add struct {
		ID int `json:"id"`
	}
	names := []string{"barak obama", "barak obamma", "angela merkel", "emmanuel macron"}
	for i, n := range names {
		post(t, ts.URL+"/add", `{"name": "`+n+`"}`, &add)
		if add.ID != i {
			t.Fatalf("add %q: id %d, want %d", n, add.ID, i)
		}
	}
	var snap struct {
		Generation uint64 `json:"generation"`
		Strings    int    `json:"strings"`
	}
	if resp := post(t, ts.URL+"/snapshot", `{}`, &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot: status %d", resp.StatusCode)
	}
	if snap.Generation != 1 || snap.Strings != len(names) {
		t.Fatalf("/snapshot response: %+v", snap)
	}
	// Post-snapshot writes land in the WAL tail.
	post(t, ts.URL+"/add", `{"name": "angela merkle"}`, &add)
	if add.ID != len(names) {
		t.Fatalf("post-snapshot id = %d", add.ID)
	}
	var before struct {
		Matches []distrib.Match `json:"matches"`
	}
	post(t, ts.URL+"/query", `{"name": "angela merkel"}`, &before)

	// Kill everything gracefully (the crash variant is covered by the
	// stream-layer restart tests).
	shutdown()

	ts2, m2, c2, _ := newDurableTestServer(t, dir)
	if m2.Len() != len(names)+1 {
		t.Fatalf("restarted Len = %d, want %d", m2.Len(), len(names)+1)
	}
	if cs := c2.Stats(); cs.Generation != 1 || cs.WALReplayed != 1 {
		t.Fatalf("restart recovery: generation %d, replayed %d (want 1, 1)", cs.Generation, cs.WALReplayed)
	}
	var after struct {
		Matches []distrib.Match `json:"matches"`
	}
	post(t, ts2.URL+"/query", `{"name": "angela merkel"}`, &after)
	if len(after.Matches) != len(before.Matches) {
		t.Fatalf("restarted query differs: %v != %v", after.Matches, before.Matches)
	}
	for i := range after.Matches {
		if after.Matches[i] != before.Matches[i] {
			t.Fatalf("restarted query differs at %d: %v != %v", i, after.Matches[i], before.Matches[i])
		}
	}
	// /stats exposes the corpus counters on a durable server.
	resp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Corpus *struct {
			Strings     int   `json:"Strings"`
			WALReplayed int64 `json:"WALReplayed"`
		} `json:"corpus"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Corpus == nil || stats.Corpus.Strings != len(names)+1 {
		t.Fatalf("/stats corpus section: %+v", stats.Corpus)
	}
}

// request issues an arbitrary-method HTTP request and returns the
// response (body closed; status and headers remain readable).
func request(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestServeErrorPaths: every malformed-request class maps to its
// status — wrong method (including writes to the read-only endpoints),
// malformed and unknown-field JSON, missing/unknown delete ids, and
// oversized bodies (413, not a generic 400).
func TestServeErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	oversized := `{"name": "` + strings.Repeat("a", httpx.MaxBodyBytes+16) + `"}`
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"malformed json", http.MethodPost, "/add", `{not json`, http.StatusBadRequest},
		{"unknown field", http.MethodPost, "/add", `{"nmae": "typo"}`, http.StatusBadRequest},
		{"get on mutating endpoint", http.MethodGet, "/add", "", http.StatusMethodNotAllowed},
		{"put on query", http.MethodPut, "/query", `{"name": "x"}`, http.StatusMethodNotAllowed},
		{"missing delete id", http.MethodPost, "/delete", `{}`, http.StatusBadRequest},
		{"unknown delete id", http.MethodPost, "/delete", `{"id": 99}`, http.StatusBadRequest},
		{"oversized body", http.MethodPost, "/add", oversized, http.StatusRequestEntityTooLarge},
		{"post to stats", http.MethodPost, "/stats", `{}`, http.StatusMethodNotAllowed},
		{"post to healthz", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
		{"delete on readyz", http.MethodDelete, "/readyz", "", http.StatusMethodNotAllowed},
		{"get stats", http.MethodGet, "/stats", "", http.StatusOK},
		{"get healthz", http.MethodGet, "/healthz", "", http.StatusOK},
		{"get readyz", http.MethodGet, "/readyz", "", http.StatusOK},
	}
	for _, tc := range cases {
		if resp := request(t, tc.method, ts.URL+tc.path, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: %s %s -> status %d, want %d", tc.name, tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	// The failures above must be visible in the per-endpoint error
	// counters.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Endpoints map[string]struct {
			Errors int64 `json:"errors"`
			Shed   int64 `json:"shed"`
			Panics int64 `json:"panics"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Endpoints["add"].Errors < 4 {
		t.Fatalf("add error counter = %d, want >= 4 (malformed, unknown field, method, oversized)", stats.Endpoints["add"].Errors)
	}
	if stats.Endpoints["delete"].Errors != 2 {
		t.Fatalf("delete error counter = %d, want 2", stats.Endpoints["delete"].Errors)
	}
	if stats.Endpoints["query"].Panics != 0 || stats.Endpoints["query"].Shed != 0 {
		t.Fatalf("spurious panic/shed counts: %+v", stats.Endpoints["query"])
	}
}

// TestServeShedOverload: when every concurrency slot is held, requests
// are rejected immediately with 503 + Retry-After (never queued), the
// shed counter advances, and freeing the slots restores service.
func TestServeShedOverload(t *testing.T) {
	m, err := tsjoin.NewConcurrentMatcher(tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	s := newServer(m, nil, 1)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	s.inflight <- struct{}{} // occupy the only slot
	resp := request(t, http.MethodPost, ts.URL+"/query", `{"name": "x"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded query: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := s.ctr["query"].shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}
	<-s.inflight // drain; service resumes
	if resp := request(t, http.MethodPost, ts.URL+"/query", `{"name": "x"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after drain: status %d, want 200", resp.StatusCode)
	}
}

// TestServePanicRecovery: a handler panic becomes a 500, is counted,
// and does not kill the server.
func TestServePanicRecovery(t *testing.T) {
	m, err := tsjoin.NewConcurrentMatcher(tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	s := newServer(m, nil, 0)
	h := s.instrument("add", func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/add", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if got := s.ctr["add"].panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	if got := s.ctr["add"].errors.Load(); got != 1 {
		t.Fatalf("error counter = %d, want 1", got)
	}
	// The wrapper recovered: the same server keeps serving.
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"name": "x"}`)))
	if rec2.Code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", rec2.Code)
	}
}

// TestServeDegradedEndToEnd: a WAL fsync failure flips the server to
// read-only — the failing mutation and everything after it get 503 +
// Retry-After while /query and /stats keep serving, /readyz reports
// not-ready while /healthz stays 200 — and the background recovery loop
// heals the corpus and restores writes without a restart.
func TestServeDegradedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	inj := iofault.NewInjector(iofault.OS, iofault.Disarmed())
	c, err := tsjoin.OpenCorpus(dir, tsjoin.CorpusOptions{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tsjoin.NewConcurrentMatcherFromCorpus(c, tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
		Shards:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(m, c, 0)
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var recoveryDone chan struct{}  // non-nil once the recovery loop starts
	t.Cleanup(func() { c.Close() }) // LIFO: runs after shutdown below
	stopped := false
	shutdown := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		if recoveryDone != nil {
			<-recoveryDone
		}
		ts.Close()
		m.Close()
	}
	t.Cleanup(shutdown)

	var add struct {
		ID int `json:"id"`
	}
	post(t, ts.URL+"/add", `{"name": "barak obama"}`, &add)
	if add.ID != 0 {
		t.Fatalf("healthy add: %+v", add)
	}

	// Fail the next WAL fsync: the add is rejected and the write path
	// seals.
	inj.SetPlan(iofault.Plan{FailAt: 0, Only: iofault.OpSync})
	resp := request(t, http.MethodPost, ts.URL+"/add", `{"name": "angela merkel"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add over failing fsync: status %d, want 503", resp.StatusCode)
	}
	// Subsequent mutations are gated before touching the matcher.
	resp = request(t, http.MethodPost, ts.URL+"/add", `{"name": "emmanuel macron"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gated add: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}

	// Reads keep serving from the live index.
	var query struct {
		Matches []distrib.Match `json:"matches"`
	}
	if resp := post(t, ts.URL+"/query", `{"name": "barak obamma"}`, &query); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query: status %d, want 200", resp.StatusCode)
	}
	if len(query.Matches) != 1 || query.Matches[0].ID != 0 {
		t.Fatalf("degraded query result: %+v", query)
	}

	// /readyz flips; /healthz (pure liveness) does not; /stats says why.
	if resp := request(t, http.MethodGet, ts.URL+"/readyz", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz: status %d, want 503", resp.StatusCode)
	}
	if resp := request(t, http.MethodGet, ts.URL+"/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz: status %d, want 200", resp.StatusCode)
	}
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Degraded      bool   `json:"degraded"`
		DegradedCause string `json:"degraded_cause"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if !stats.Degraded || stats.DegradedCause == "" {
		t.Fatalf("degraded /stats: %+v", stats)
	}

	// Start the recovery loop (only now, so it cannot heal the corpus
	// between the assertions above): the injector is healthy again, so
	// the loop rotates to a fresh generation and writes and readiness
	// come back.
	recoveryDone = make(chan struct{})
	go func() {
		defer close(recoveryDone)
		runRecovery(ctx, s, 2*time.Millisecond)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.degraded() != nil {
		if time.Now().After(deadline) {
			t.Fatal("recovery loop did not heal the corpus in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	post(t, ts.URL+"/add", `{"name": "angela merkel"}`, &add)
	if add.ID != 1 {
		t.Fatalf("post-recovery add: %+v (rolled-back add must not have consumed an id)", add)
	}
	if resp := request(t, http.MethodGet, ts.URL+"/readyz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healed /readyz: status %d, want 200", resp.StatusCode)
	}

	// The acknowledged state — and only it — survives a restart.
	shutdown()
	if err := c.Close(); err != nil {
		t.Fatalf("close after heal: %v", err)
	}
	c2, err := tsjoin.OpenCorpus(dir, tsjoin.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 2 || c2.Live() != 2 {
		t.Fatalf("restart after heal: Len=%d Live=%d, want 2/2", c2.Len(), c2.Live())
	}
}
