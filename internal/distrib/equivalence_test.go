package distrib_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	tsjoin "repro"
	"repro/internal/backoff"
	"repro/internal/distrib"
	"repro/internal/namegen"
	"repro/internal/nsldtest"
	"repro/internal/serve"
	"repro/internal/token"
)

// testWorker is one in-process corpus-backed worker node: the
// production server (internal/serve), mounted on a test listener.
type testWorker struct {
	ts *httptest.Server
}

func newTestWorker(t *testing.T, mopts tsjoin.MatcherOptions) *testWorker {
	t.Helper()
	s, err := serve.New(serve.Config{
		Matcher: tsjoin.ConcurrentMatcherOptions{MatcherOptions: mopts, Shards: 2},
		DataDir: t.TempDir(),
		Corpus:  tsjoin.CorpusOptions{DisableSync: true},
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testWorker{ts: ts}
}

// newTestCluster builds n workers plus a coordinator serving them.
func newTestCluster(t *testing.T, n int, mopts tsjoin.MatcherOptions, opt distrib.Options) (*distrib.Coordinator, *httptest.Server, []*testWorker) {
	t.Helper()
	workers := make([]*testWorker, n)
	pm := distrib.Map{}
	for i := range workers {
		workers[i] = newTestWorker(t, mopts)
		pm.Shards = append(pm.Shards, distrib.Shard{Worker: workers[i].ts.URL})
	}
	co := distrib.New(pm, opt)
	t.Cleanup(co.Close)
	cs := httptest.NewServer(serve.CoordinatorHandler(co, 0))
	t.Cleanup(cs.Close)
	return co, cs, workers
}

func postRaw(t *testing.T, url string, in any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, out
}

func mustPost(t *testing.T, url string, in, out any) {
	t.Helper()
	code, body := postRaw(t, url, in)
	if code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, code, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, body)
		}
	}
}

func wireMatches(ms []tsjoin.Match) []distrib.Match {
	out := make([]distrib.Match, 0, len(ms))
	for _, m := range ms {
		out = append(out, distrib.Match{ID: m.ID, SLD: m.SLD, NSLD: m.NSLD})
	}
	return out
}

func wirePairs(ps []tsjoin.Pair) []distrib.Pair {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	out := make([]distrib.Pair, 0, len(ps))
	for _, p := range ps {
		out = append(out, distrib.Pair{A: p.A, B: p.B, SLD: p.SLD, NSLD: p.NSLD})
	}
	return out
}

// assertSameJSON asserts the cluster's raw response bytes are exactly
// the single-node wire encoding of want — the byte-level equivalence
// the subsystem promises.
func assertSameJSON(t *testing.T, what string, got []byte, want any) {
	t.Helper()
	exp, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal want: %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), exp) {
		t.Fatalf("%s diverged from single node:\n  cluster: %s\n  single:  %s", what, bytes.TrimSpace(got), exp)
	}
}

// TestClusterEquivalence is the distributed-vs-single-node property:
// the same add/join/delete/query traffic driven through a 3-worker
// cluster and through one single-node engine must produce byte-identical
// responses — global ids are arrival sequence numbers, matches merge in
// global id order — and the distributed self-join must equal the
// single-node SelfJoin over the union corpus. Run across two thresholds
// and an exact-token ablation.
func TestClusterEquivalence(t *testing.T) {
	all := namegen.Generate(namegen.Config{Seed: 91, NumNames: 150})
	seq, batch, probes := all[:100], all[100:120], all[120:]

	for _, th := range []float64{0.15, 0.3} {
		th := th
		t.Run(fmt.Sprintf("th=%.2f", th), func(t *testing.T) {
			mopts := tsjoin.MatcherOptions{Threshold: th}
			_, cs, _ := newTestCluster(t, 3, mopts, distrib.Options{
				QueryTimeout: 10 * time.Second,
				WriteTimeout: 20 * time.Second,
			})

			// Single-node reference over its own durable corpus.
			rc, err := tsjoin.OpenCorpus(t.TempDir(), tsjoin.CorpusOptions{DisableSync: true})
			if err != nil {
				t.Fatalf("ref corpus: %v", err)
			}
			rm, err := tsjoin.NewConcurrentMatcherFromCorpus(rc, tsjoin.ConcurrentMatcherOptions{MatcherOptions: mopts, Shards: 3})
			if err != nil {
				t.Fatalf("ref matcher: %v", err)
			}
			defer func() {
				rm.Close()
				rc.Close()
			}()

			anyMatch := false

			// Sequential adds.
			for i, name := range seq {
				code, body := postRaw(t, cs.URL+"/add", distrib.AddRequest{Name: name})
				if code != http.StatusOK {
					t.Fatalf("add %d: status %d: %s", i, code, body)
				}
				id, ms, err := rm.AddDurable(name)
				if err != nil {
					t.Fatalf("ref add %d: %v", i, err)
				}
				anyMatch = anyMatch || len(ms) > 0
				assertSameJSON(t, fmt.Sprintf("add %q", name), body,
					distrib.AddResponse{ID: id, Matches: wireMatches(ms)})
			}

			// One atomic batch via /join.
			code, body := postRaw(t, cs.URL+"/join", distrib.JoinRequest{Names: batch})
			if code != http.StatusOK {
				t.Fatalf("join: status %d: %s", code, body)
			}
			first, mss, err := rm.AddAllDurable(batch)
			if err != nil {
				t.Fatalf("ref join: %v", err)
			}
			wantJoin := distrib.JoinResponse{First: first}
			for i, ms := range mss {
				anyMatch = anyMatch || len(ms) > 0
				wantJoin.Results = append(wantJoin.Results, distrib.JoinResult{ID: first + i, Matches: wireMatches(ms)})
			}
			assertSameJSON(t, "join batch", body, wantJoin)

			// An empty batch allocates nothing and names the next id.
			code, body = postRaw(t, cs.URL+"/join", distrib.JoinRequest{Names: []string{}})
			if code != http.StatusOK {
				t.Fatalf("empty join: status %d: %s", code, body)
			}
			if first, _, err = rm.AddAllDurable(nil); err != nil {
				t.Fatalf("ref empty join: %v", err)
			}
			assertSameJSON(t, "empty join batch", body, distrib.JoinResponse{First: first, Results: []distrib.JoinResult{}})

			// Deletes (including a double delete, which must 400 like a
			// single node).
			for _, id := range []int{2, 41, 77, 103} {
				id := id
				code, body := postRaw(t, cs.URL+"/delete", distrib.DeleteRequest{ID: &id})
				if err := rm.Delete(id); err != nil {
					t.Fatalf("ref delete %d: %v", id, err)
				}
				if code != http.StatusOK {
					t.Fatalf("delete %d: status %d: %s", id, code, body)
				}
				assertSameJSON(t, fmt.Sprintf("delete %d", id), body, distrib.DeleteResponse{Deleted: id})
			}
			dup := 41
			if code, _ := postRaw(t, cs.URL+"/delete", distrib.DeleteRequest{ID: &dup}); code != http.StatusBadRequest {
				t.Fatalf("double delete: status %d, want 400", code)
			}
			if err := rm.Delete(dup); err == nil {
				t.Fatalf("ref double delete unexpectedly succeeded")
			}

			// Scatter-gather queries: indexed names and unseen ones.
			qnames := append(append([]string{}, seq[3], seq[55], batch[7]), probes...)
			for _, name := range qnames {
				code, body := postRaw(t, cs.URL+"/query", distrib.QueryRequest{Name: name})
				if code != http.StatusOK {
					t.Fatalf("query %q: status %d: %s", name, code, body)
				}
				ms := rm.Query(name)
				anyMatch = anyMatch || len(ms) > 0
				assertSameJSON(t, fmt.Sprintf("query %q", name), body,
					distrib.QueryResponse{Matches: wireMatches(ms)})
			}
			if !anyMatch {
				t.Fatalf("degenerate workload: no operation produced matches, equivalence not exercised")
			}

			// Distributed self-join vs the single-node SelfJoin over the
			// union corpus, exact and under the exact-token ablation.
			for _, cfg := range []distrib.JoinConfig{
				{Threshold: th},
				{Threshold: th, ExactTokens: true, Greedy: true},
			} {
				var got distrib.PairsResponse
				mustPost(t, cs.URL+"/cluster/selfjoin", distrib.SelfJoinRequest{JoinConfig: cfg}, &got)
				ropts := tsjoin.Options{Threshold: cfg.Threshold, MaxTokenFreq: cfg.MaxTokenFreq}
				if cfg.ExactTokens {
					ropts.Matching = tsjoin.ExactTokenMatching
				}
				if cfg.Greedy {
					ropts.Aligning = tsjoin.GreedyAligning
				}
				want, err := rc.SelfJoin(ropts)
				if err != nil {
					t.Fatalf("ref selfjoin: %v", err)
				}
				wp := wirePairs(want)
				if len(wp) == 0 {
					t.Fatalf("degenerate workload: single-node self-join empty at th=%.2f", cfg.Threshold)
				}
				gb, _ := json.Marshal(got.Pairs)
				wb, _ := json.Marshal(wp)
				if !bytes.Equal(gb, wb) {
					t.Fatalf("distributed self-join diverged (cfg %+v):\n  cluster: %s\n  single:  %s", cfg, gb, wb)
				}
			}
		})
	}
}

// TestClusterEquivalenceAfterFailover re-runs the query equivalence
// after a worker dies and its standby chain answers: hedged scatter
// legs walk to the standby and the merged result set stays the
// single-node one.
func TestClusterEquivalenceAfterFailover(t *testing.T) {
	mopts := tsjoin.MatcherOptions{Threshold: 0.3}

	// Shard 0 gets a warm twin in its standby chain from the start;
	// writes never touch it, so we replay shard 0's slice of the traffic
	// into it by hand below (same names, same order → same local ids).
	primary0 := newTestWorker(t, mopts)
	twin := newTestWorker(t, mopts)
	worker1 := newTestWorker(t, mopts)
	pm := distrib.Map{Shards: []distrib.Shard{
		{Worker: primary0.ts.URL, Standbys: []string{twin.ts.URL}},
		{Worker: worker1.ts.URL},
	}}
	co := distrib.New(pm, distrib.Options{
		QueryTimeout: 5 * time.Second,
		WriteTimeout: 10 * time.Second,
		Retry:        backoff.Policy{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	t.Cleanup(co.Close)
	cs := httptest.NewServer(serve.CoordinatorHandler(co, 0))
	t.Cleanup(cs.Close)

	rc, err := tsjoin.OpenCorpus(t.TempDir(), tsjoin.CorpusOptions{DisableSync: true})
	if err != nil {
		t.Fatalf("ref corpus: %v", err)
	}
	rm, err := tsjoin.NewConcurrentMatcherFromCorpus(rc, tsjoin.ConcurrentMatcherOptions{MatcherOptions: mopts, Shards: 2})
	if err != nil {
		t.Fatalf("ref matcher: %v", err)
	}
	defer func() {
		rm.Close()
		rc.Close()
	}()

	names := namegen.Generate(namegen.Config{Seed: 17, NumNames: 60})
	var shard0Names []string
	for _, name := range names[:50] {
		mustPost(t, cs.URL+"/add", distrib.AddRequest{Name: name}, nil)
		if _, _, err := rm.AddDurable(name); err != nil {
			t.Fatalf("ref add: %v", err)
		}
		if pm.OwnerOf(name, token.WhitespaceAndPunct) == 0 {
			shard0Names = append(shard0Names, name)
		}
	}
	if len(shard0Names) == 0 {
		t.Fatalf("degenerate routing: no name landed on shard 0")
	}

	// Warm the twin with shard 0's slice in arrival order (local ids
	// 0..k, exactly the dead primary's), then kill the primary: hedged
	// scatter legs must walk to the twin.
	mustPost(t, twin.ts.URL+"/join", distrib.JoinRequest{Names: shard0Names}, nil)
	primary0.ts.Close()

	anyMatch := false
	for _, name := range names[50:] {
		code, body := postRaw(t, cs.URL+"/query", distrib.QueryRequest{Name: name})
		if code != http.StatusOK {
			t.Fatalf("query %q after worker death: status %d: %s", name, code, body)
		}
		ms := rm.Query(name)
		anyMatch = anyMatch || len(ms) > 0
		assertSameJSON(t, fmt.Sprintf("query %q", name), body, distrib.QueryResponse{Matches: wireMatches(ms)})
	}
	if !anyMatch {
		t.Fatalf("degenerate workload: no query matched, failover equivalence not exercised")
	}
}

// TestCoordinatorConcurrentAddQuery drives the coordinator from
// concurrent clients, each interleaving /add with /query of a name it
// already added. The coordinator must hand out every global id in
// 0..N-1 exactly once, /stats must count N strings, and once traffic
// settles each name's /query must be the naive join over the names in
// global-id order.
func TestCoordinatorConcurrentAddQuery(t *testing.T) {
	const th, clients = 0.3, 4
	names := namegen.Generate(namegen.Config{Seed: 11, NumNames: 60})
	_, cs, _ := newTestCluster(t, 2, tsjoin.MatcherOptions{Threshold: th}, distrib.Options{
		QueryTimeout: 5 * time.Second,
		WriteTimeout: 10 * time.Second,
		Retry:        backoff.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	})

	post := func(path string, in, out any) error {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := http.Post(cs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, msg)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	// Client c adds names[c*N/C : (c+1)*N/C]; ids[i] is the global id
	// /add returned for names[i].
	ids := make([]int, len(names))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		lo, hi := c*len(names)/clients, (c+1)*len(names)/clients
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				var add distrib.AddResponse
				if err := post("/add", distrib.AddRequest{Name: names[i]}, &add); err != nil {
					t.Errorf("add %q: %v", names[i], err)
					return
				}
				ids[i] = add.ID
				var q distrib.QueryResponse
				probe := names[lo+(i-lo)*7%(i-lo+1)]
				if err := post("/query", distrib.QueryRequest{Name: probe}, &q); err != nil {
					t.Errorf("query %q: %v", probe, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	byID := make([]string, len(names))
	seen := make([]bool, len(names))
	for i, id := range ids {
		if id < 0 || id >= len(names) || seen[id] {
			t.Fatalf("name %d got global id %d: ids = %v, want a permutation of 0..%d", i, id, ids, len(names)-1)
		}
		seen[id] = true
		byID[id] = names[i]
	}

	resp, err := http.Get(cs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st distrib.ClusterStats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Strings != len(names) {
		t.Fatalf("/stats strings = %d, want %d", st.Strings, len(names))
	}

	strs := make([]token.TokenizedString, len(byID))
	for id, n := range byID {
		strs[id] = token.WhitespaceAndPunct(n)
	}
	anyMatch := false
	for id, n := range byID {
		want := distrib.QueryResponse{Matches: []distrib.Match{}}
		for _, h := range nsldtest.Matches(strs[id], strs, th, false) {
			want.Matches = append(want.Matches, distrib.Match(h))
		}
		anyMatch = anyMatch || len(want.Matches) > 1
		code, body := postRaw(t, cs.URL+"/query", distrib.QueryRequest{Name: n})
		if code != http.StatusOK {
			t.Fatalf("query %q: status %d: %s", n, code, body)
		}
		assertSameJSON(t, fmt.Sprintf("query %q", n), body, want)
	}
	if !anyMatch {
		t.Fatalf("degenerate workload: no name matched another, equivalence not exercised")
	}
}
