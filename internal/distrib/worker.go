package distrib

import (
	"fmt"
	"net/http"

	tsjoin "repro"
	"repro/internal/token"
)

// WorkerExt serves the worker-side endpoints of the distributed join —
// the executor surface the coordinator drives through the mapreduce
// seam. tsjserve mounts it on its mux when running durable; the
// endpoints are corpus-backed because the distributed join reuses each
// shard's stored filter state (tsj.SelfJoinCorpus / tsj.JoinCorpus)
// rather than rebuilding per call.
type WorkerExt struct {
	C *tsjoin.Corpus
}

// Register mounts the worker cluster endpoints on mux.
func (we WorkerExt) Register(mux *http.ServeMux) {
	mux.HandleFunc("/cluster/strings", we.ServeStrings)
	mux.HandleFunc("/cluster/probe", we.ServeProbe)
	mux.HandleFunc("/cluster/selfjoin", we.ServeSelfJoin)
}

// options maps the wire config onto the join options — the one place
// the translation lives, so every worker runs the phases identically.
func (c JoinConfig) options() tsjoin.Options {
	opts := tsjoin.Options{
		Threshold:    c.Threshold,
		MaxTokenFreq: c.MaxTokenFreq,
	}
	if c.ExactTokens {
		opts.Matching = tsjoin.ExactTokenMatching
	}
	if c.Greedy {
		opts.Aligning = tsjoin.GreedyAligning
	}
	return opts
}

func (c JoinConfig) validate(w http.ResponseWriter) bool {
	if !(c.Threshold >= 0 && c.Threshold < 1) { // also rejects NaN
		http.Error(w, "bad request: threshold must be in [0, 1)", http.StatusBadRequest)
		return false
	}
	return true
}

// ServeStrings is GET /cluster/strings: the live corpus as local-id +
// token-multiset rows.
func (we WorkerExt) ServeStrings(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ids, toks := we.C.LiveTokens()
	if ids == nil {
		ids = []int{}
	}
	if toks == nil {
		toks = [][]string{}
	}
	writeJSON(w, StringsResponse{IDs: ids, Tokens: toks})
}

// ServeProbe is POST /cluster/probe: the bipartite join of the posted
// probe token multisets against the live corpus (Job 1/Job 2 run here,
// on the worker, over its stored order and postings).
func (we WorkerExt) ServeProbe(w http.ResponseWriter, r *http.Request) {
	var req ProbeJoinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !req.validate(w) {
		return
	}
	probes := make([]tsjoin.TokenizedString, len(req.Probes))
	for i, toks := range req.Probes {
		probes[i] = token.New(toks)
	}
	pairs, _, err := we.C.JoinTokenized(probes, req.options())
	if err != nil {
		http.Error(w, "probe join: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, PairsResponse{Pairs: toWirePairs(pairs)})
}

// ServeSelfJoin is POST /cluster/selfjoin: this shard's local
// self-join over its stored filter state.
func (we WorkerExt) ServeSelfJoin(w http.ResponseWriter, r *http.Request) {
	var req SelfJoinRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if !req.validate(w) {
		return
	}
	pairs, err := we.C.SelfJoin(req.options())
	if err != nil {
		http.Error(w, "self-join: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, PairsResponse{Pairs: toWirePairs(pairs)})
}

func toWirePairs(pairs []tsjoin.Pair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{A: p.A, B: p.B, SLD: p.SLD, NSLD: p.NSLD}
	}
	return out
}

// WorkerMux is the minimal worker-node surface the coordinator drives:
// /add, /query, /join, /delete (the single-node wire contract),
// /healthz, /stats (the WorkerStats funnel subset) and the WorkerExt
// cluster endpoints. It exists as the in-process worker for the cluster
// tests — the wire-contract reference — while cmd/tsjserve serves the
// production version of the same contract with instrumentation,
// degraded-mode gating and replication wiring on top.
func WorkerMux(m *tsjoin.ConcurrentMatcher, c *tsjoin.Corpus) http.Handler {
	mux := http.NewServeMux()
	if c != nil {
		WorkerExt{C: c}.Register(mux)
	}
	mux.HandleFunc("/add", func(w http.ResponseWriter, r *http.Request) {
		var req AddRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		id, matches, err := m.AddDurable(req.Name)
		if err != nil {
			http.Error(w, "persistence failure: "+err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, AddResponse{ID: id, Matches: toWireMatches(matches)})
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, QueryResponse{Matches: toWireMatches(m.Query(req.Name))})
	})
	mux.HandleFunc("/join", func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		first, matches, err := m.AddAllDurable(req.Names)
		if err != nil {
			http.Error(w, "persistence failure: "+err.Error(), http.StatusInternalServerError)
			return
		}
		results := make([]JoinResult, len(matches))
		for i, ms := range matches {
			results[i] = JoinResult{ID: first + i, Matches: toWireMatches(ms)}
		}
		writeJSON(w, JoinResponse{First: first, Results: results})
	})
	mux.HandleFunc("/delete", func(w http.ResponseWriter, r *http.Request) {
		var req DeleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.ID == nil {
			http.Error(w, "bad request: missing id", http.StatusBadRequest)
			return
		}
		if err := m.Delete(*req.ID); err != nil {
			http.Error(w, "delete: "+err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, DeleteResponse{Deleted: *req.ID})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, FromShardedStats(m.Stats()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func toWireMatches(ms []tsjoin.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{ID: m.ID, SLD: m.SLD, NSLD: m.NSLD}
	}
	return out
}
