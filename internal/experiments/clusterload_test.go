package experiments

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	tsjoin "repro"
	"repro/internal/backoff"
	"repro/internal/distrib"
	"repro/internal/serve"
)

// TestClusterLoadAgainstCoordinator drives the cluster load generator at
// an in-process coordinator over two in-memory workers and checks the
// report's shape: both op rows present with the full sample counts, and
// the engine-vs-end-to-end split note rendered.
func TestClusterLoadAgainstCoordinator(t *testing.T) {
	newWorker := func() string {
		s, err := serve.New(serve.Config{Matcher: tsjoin.ConcurrentMatcherOptions{
			MatcherOptions: tsjoin.MatcherOptions{Threshold: 0.2},
			Shards:         2,
		}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return ts.URL
	}
	pm := distrib.Map{Shards: []distrib.Shard{{Worker: newWorker()}, {Worker: newWorker()}}}
	co := httptest.NewServer(distrib.New(pm, distrib.Options{
		QueryTimeout: 3 * time.Second,
		WriteTimeout: 5 * time.Second,
		Retry:        backoff.Policy{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
	}).Handler())
	t.Cleanup(co.Close)

	const names, qpa = 60, 2
	tbl, err := ClusterLoad(ClusterLoadConfig{
		Coordinator:   co.URL,
		Seed:          11,
		NumNames:      names,
		Clients:       4,
		QueriesPerAdd: qpa,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want add + query", len(tbl.Rows))
	}
	wantCounts := map[string]int{"add": names, "query": names * qpa}
	for _, row := range tbl.Rows {
		op := row[0]
		if got := parseF(t, row[1]); int(got) != wantCounts[op] {
			t.Fatalf("%s count = %v, want %d", op, got, wantCounts[op])
		}
		for _, cell := range row[3:] {
			if !strings.HasSuffix(cell, "ms") {
				t.Fatalf("%s latency cell %q not in ms", op, cell)
			}
		}
	}
	split := tbl.Notes[0]
	if !strings.Contains(split, "worker engine wall") || !strings.Contains(split, "total client time") {
		t.Fatalf("split note missing: %q", split)
	}
	if !strings.Contains(tbl.Notes[1], "grew 0 -> 60 strings across 2 workers") {
		t.Fatalf("growth note wrong: %q", tbl.Notes[1])
	}
}
