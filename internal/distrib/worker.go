package distrib

import (
	"net/http"

	tsjoin "repro"
	"repro/internal/httpx"
	"repro/internal/token"
)

// WorkerExt serves the worker-side endpoints of the distributed join —
// the executor surface the coordinator drives through the mapreduce
// seam. internal/serve mounts it when running durable; the endpoints
// are corpus-backed because the distributed join reuses each shard's
// stored filter state (tsj.SelfJoinCorpus / tsj.JoinCorpus) rather than
// rebuilding per call.
type WorkerExt struct {
	C *tsjoin.Corpus
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
	httpx.WriteJSON(w, StringsResponse{IDs: ids, Tokens: toks})
}

// ServeProbe is POST /cluster/probe: the bipartite join of the posted
// probe token multisets against the live corpus (Job 1/Job 2 run here,
// on the worker, over its stored order and postings).
func (we WorkerExt) ServeProbe(w http.ResponseWriter, r *http.Request) {
	var req ProbeJoinRequest
	if !httpx.DecodeJSON(w, r, &req) {
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
	httpx.WriteJSON(w, PairsResponse{Pairs: toWirePairs(pairs)})
}

// ServeSelfJoin is POST /cluster/selfjoin: this shard's local
// self-join over its stored filter state.
func (we WorkerExt) ServeSelfJoin(w http.ResponseWriter, r *http.Request) {
	var req SelfJoinRequest
	if !httpx.DecodeJSON(w, r, &req) {
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
	httpx.WriteJSON(w, PairsResponse{Pairs: toWirePairs(pairs)})
}

func toWirePairs(pairs []tsjoin.Pair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{A: p.A, B: p.B, SLD: p.SLD, NSLD: p.NSLD}
	}
	return out
}
