package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"

	tsjoin "repro"
	"repro/internal/distrib"
	"repro/internal/httpx"
	"repro/internal/replica"
	"repro/internal/token"
)

// Handler builds the node's route table: the shared wire contract under
// the request lifecycle (see mount), behind readLocked; /snapshot under
// the same lifecycle; and the node's own read, replication and cluster
// executor endpoints. Writes fail fast while the node is a standby or
// its corpus is degraded (writable); /snapshot stays ungated — it IS the
// manual heal path (a successful rotation clears the degraded state).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.mount(mux, node{s}, s.readLocked)
	mux.HandleFunc("/snapshot", s.instrument("snapshot", s.readLocked(endpoint("snapshot", s.snapshot))))
	mux.HandleFunc("GET /stats", s.readLocked(s.handleStats))
	mux.HandleFunc("GET /readyz", s.readLocked(readyz(s.ready)))
	mux.HandleFunc("GET /replication", s.handleReplication)
	mux.HandleFunc("/replication/register", s.handleRegister)
	mux.HandleFunc("/replication/apply", s.handleApply)
	mux.HandleFunc("POST /promote", s.handlePromote)
	// Worker-side cluster endpoints: the executor surface a coordinator
	// drives for the distributed join. They run over the durable corpus
	// (reading its live token frequencies rather than counting them per
	// call), so an in-memory node answers 409.
	mux.HandleFunc("GET /cluster/strings", s.readLocked(s.handleStrings))
	mux.HandleFunc("/cluster/probe", s.readLocked(endpoint("probe", s.probe)))
	mux.HandleFunc("/cluster/selfjoin", s.readLocked(endpoint("selfjoin", s.selfJoin)))
	return mux
}

// readLocked pins the engine handles for the request's duration: a
// standby bootstrap swaps them under the write lock, so a handler that
// grabbed s.m without this could race the swap's Close. While a swap is
// in progress (or left the handles nil after failing) the request is
// answered 503 — the primary's retry re-orders the reset.
//
// The replication endpoints themselves must NOT run under this lock:
// /replication/apply is the path that takes the write lock.
func (s *Server) readLocked(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.engMu.RLock()
		defer s.engMu.RUnlock()
		if s.m == nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "engine resetting: replica re-seed in progress", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// node is the backend of the shared contract on a single node: its own
// matcher, read under the engine lock readLocked holds.
type node struct{ s *Server }

func (n node) Add(_ context.Context, name string) (distrib.AddResponse, error) {
	if err := n.s.writable(); err != nil {
		return distrib.AddResponse{}, err
	}
	id, matches, err := n.s.m.AddDurable(name)
	if err != nil {
		return distrib.AddResponse{}, err
	}
	return distrib.AddResponse{ID: id, Matches: distrib.Matches(matches)}, nil
}

func (n node) Query(_ context.Context, name string, _ bool) (distrib.QueryResponse, error) {
	return distrib.QueryResponse{Matches: distrib.Matches(n.s.m.Query(name))}, nil
}

func (n node) Join(_ context.Context, names []string) (distrib.JoinResponse, error) {
	if err := n.s.writable(); err != nil {
		return distrib.JoinResponse{}, err
	}
	first, matches, err := n.s.m.AddAllDurable(names)
	if err != nil {
		return distrib.JoinResponse{}, err
	}
	results := make([]distrib.JoinResult, len(matches))
	for i, ms := range matches {
		results[i] = distrib.JoinResult{ID: first + i, Matches: distrib.Matches(ms)}
	}
	return distrib.JoinResponse{First: first, Results: results}, nil
}

// Delete tombstones id; the matcher keeps the live index and the corpus
// WAL (when durable) in step. An unknown or double delete is the
// caller's fault (tsjoin.ErrNotFound), a WAL failure ours.
func (n node) Delete(_ context.Context, id int) (distrib.DeleteResponse, error) {
	if err := n.s.writable(); err != nil {
		return distrib.DeleteResponse{}, err
	}
	if err := n.s.m.Delete(id); err != nil {
		return distrib.DeleteResponse{}, err
	}
	return distrib.DeleteResponse{Deleted: id}, nil
}

// writable fails a mutation fast: a standby is read-only by role (writes
// go to the primary; promotion lifts this), and a degraded corpus is
// read-only by circumstance — either way before the request touches the
// write path.
func (s *Server) writable() error {
	if s.roleName() == roleStandby {
		return &httpx.StatusError{Code: http.StatusServiceUnavailable, Body: "read-only standby: writes go to the primary (POST /promote to fail over)"}
	}
	if err := s.degraded(); err != nil {
		return &httpx.StatusError{Code: http.StatusServiceUnavailable, Body: "degraded, serving read-only: " + err.Error()}
	}
	return nil
}

// ready is the node's readiness. A standby is routable only as a warm,
// caught-up replica: registered with the primary, not mid-bootstrap, in
// recent contact — anything else and its answers may be arbitrarily
// stale. A degraded corpus is not ready either.
func (s *Server) ready() error {
	if s.roleName() == roleStandby && s.stby != nil && !s.stby.Ready() {
		return errors.New("standby not ready: syncing or out of contact with the primary")
	}
	if err := s.degraded(); err != nil {
		return fmt.Errorf("degraded: %w", err)
	}
	return nil
}

// replStatus is the JSON shape of GET /replication and the replication
// section of /stats: the node's role plus whichever sides it runs.
type replStatus struct {
	Role string `json:"role"`
	// Primary is the shipper's view (followers, lag) on a shipping-
	// capable node; Standby the applier's view on a -replica-of node
	// (it remains, sealed, after promotion so its counters stay
	// visible).
	Primary *replica.PrimaryStatus `json:"primary,omitempty"`
	Standby *replica.StandbyStatus `json:"standby,omitempty"`
}

func (s *Server) replicationStatus() replStatus {
	st := replStatus{Role: s.roleName()}
	if p := s.shipper(); p != nil {
		ps := p.Status()
		st.Primary = &ps
	}
	if s.stby != nil {
		ss := s.stby.Status()
		st.Standby = &ss
	}
	return st
}

func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, s.replicationStatus())
}

// handleRegister accepts a standby's "ship to me" handshake; only a
// node currently acting as a primary has a shipper to hand it to.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	p := s.shipper()
	if p == nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "not accepting followers: node is a standby or in-memory", http.StatusServiceUnavailable)
		return
	}
	p.ServeRegister(w, r)
}

// handleApply ingests one shipped batch on a standby. It runs outside
// readLocked on purpose: a bootstrap chunk's reset takes the engine
// write lock, which drains the readLocked endpoints first.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if s.stby == nil {
		http.Error(w, "not a standby: this node does not accept replication traffic", http.StatusConflict)
		return
	}
	s.stby.ServeApply(w, r)
}

// handlePromote fails the node over: seal the applier (rejecting
// further replication traffic, including from a still-live old
// primary), fsync the corpus, and flip the role to writable primary —
// from here the node accepts follower registrations of its own.
// Promotion of a syncing standby is refused: its state is a partial
// bootstrap, not a prefix of the primary's history.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.stby == nil {
		http.Error(w, "not a standby: nothing to promote", http.StatusConflict)
		return
	}
	already := s.roleName() == rolePrimary
	if err := s.stby.Promote(); err != nil {
		// A syncing standby (ErrSyncing) or a seal failure (e.g. degraded
		// corpus: the final fsync cannot be trusted) leaves the standby
		// unsealed and promotion retryable.
		writeError(w, "promote", err)
		return
	}
	s.role.Store(rolePrimary)
	s.engMu.RLock()
	c := s.c
	s.engMu.RUnlock()
	s.primMu.Lock()
	if s.prim == nil && c != nil {
		s.prim = replica.NewPrimary(c, replica.PrimaryOptions{Logf: log.Printf})
	}
	s.primMu.Unlock()
	lsn := uint64(0)
	if c != nil {
		lsn = c.LSN()
	}
	if !already {
		log.Printf("promoted: standby sealed at lsn %d, now serving as writable primary", lsn)
	}
	httpx.WriteJSON(w, struct {
		Role    string `json:"role"`
		LSN     uint64 `json:"lsn"`
		Already bool   `json:"already,omitempty"`
	}{rolePrimary, lsn, already})
}

// errNoCorpus answers the endpoints that need a durable corpus on an
// in-memory node.
var errNoCorpus = &httpx.StatusError{Code: http.StatusConflict, Body: "no -data directory: the index is not persistent"}

// snapshotRequest / snapshotResponse are POST /snapshot.
type snapshotRequest struct {
	Compact bool `json:"compact"`
}
type snapshotResponse struct {
	Generation uint64 `json:"generation"`
	Strings    int    `json:"strings"`
	Compacted  bool   `json:"compacted"`
}

func (s *Server) snapshot(_ *http.Request, req snapshotRequest) (snapshotResponse, error) {
	if s.c == nil {
		return snapshotResponse{}, errNoCorpus
	}
	var err error
	if req.Compact {
		err = s.c.Compact()
	} else {
		err = s.c.Snapshot()
	}
	if err != nil {
		return snapshotResponse{}, err
	}
	st := s.c.Stats()
	return snapshotResponse{st.Generation, st.Strings, req.Compact}, nil
}

// handleStrings is GET /cluster/strings: the live corpus as local-id +
// token-multiset rows, the probe-side feed of the distributed join.
func (s *Server) handleStrings(w http.ResponseWriter, r *http.Request) {
	if s.c == nil {
		writeError(w, "strings", errNoCorpus)
		return
	}
	ids, toks := s.c.LiveTokens()
	if ids == nil {
		ids = []int{}
	}
	if toks == nil {
		toks = [][]string{}
	}
	httpx.WriteJSON(w, distrib.StringsResponse{IDs: ids, Tokens: toks})
}

// probe is POST /cluster/probe: the bipartite join of the posted probe
// token multisets against the live corpus (Job 1/Job 2 run here, on the
// worker, over its corpus's stored frequencies).
func (s *Server) probe(_ *http.Request, req distrib.ProbeJoinRequest) (distrib.PairsResponse, error) {
	if s.c == nil {
		return distrib.PairsResponse{}, errNoCorpus
	}
	opts, err := joinOptions(req.JoinConfig)
	if err != nil {
		return distrib.PairsResponse{}, err
	}
	probes := make([]tsjoin.TokenizedString, len(req.Probes))
	for i, toks := range req.Probes {
		probes[i] = token.New(toks)
	}
	pairs, _, err := s.c.JoinTokenized(probes, opts)
	if err != nil {
		return distrib.PairsResponse{}, err
	}
	return wirePairs(pairs), nil
}

// selfJoin is a node's POST /cluster/selfjoin: this shard's local
// self-join over its durable corpus.
func (s *Server) selfJoin(_ *http.Request, req distrib.SelfJoinRequest) (distrib.PairsResponse, error) {
	if s.c == nil {
		return distrib.PairsResponse{}, errNoCorpus
	}
	opts, err := joinOptions(req.JoinConfig)
	if err != nil {
		return distrib.PairsResponse{}, err
	}
	pairs, err := s.c.SelfJoin(opts)
	if err != nil {
		return distrib.PairsResponse{}, err
	}
	return wirePairs(pairs), nil
}

func wirePairs(pairs []tsjoin.Pair) distrib.PairsResponse {
	out := make([]distrib.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = distrib.Pair{A: p.A, B: p.B, SLD: p.SLD, NSLD: p.NSLD}
	}
	return distrib.PairsResponse{Pairs: out}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var degradedCause string
	if err := s.degraded(); err != nil {
		degradedCause = err.Error()
	}
	var corpusStats *tsjoin.CorpusStats
	if s.c != nil {
		cs := s.c.Stats()
		corpusStats = &cs
	}
	var repl *replStatus
	if rs := s.replicationStatus(); rs.Primary != nil || rs.Standby != nil {
		repl = &rs
	}
	// The funnel counters are the embedded distrib.WorkerStats — its json
	// tags are the single source of truth for the field names, so a
	// coordinator aggregating this node's /stats cannot drift from what
	// the node publishes.
	httpx.WriteJSON(w, struct {
		distrib.WorkerStats
		lifecycleStats
		Degraded      bool                `json:"degraded"`
		DegradedCause string              `json:"degraded_cause,omitempty"`
		Corpus        *tsjoin.CorpusStats `json:"corpus,omitempty"`
		Replication   *replStatus         `json:"replication,omitempty"`
	}{distrib.FromShardedStats(s.m.Stats()), s.stats(), degradedCause != "", degradedCause, corpusStats, repl})
}
