package serve

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	tsjoin "repro"
	"repro/internal/distrib"
	"repro/internal/httpx"
	"repro/internal/replica"
)

// endpointNames are the instrumented endpoints, in /stats display order.
var endpointNames = []string{"add", "query", "join", "delete", "snapshot"}

// Handler builds the route table. Instrumented endpoints get the full
// request-lifecycle wrapper (shedding, panic recovery, status capture,
// latency); mutating endpoints additionally fail fast while the corpus
// is degraded. /snapshot stays ungated — it IS the manual heal path
// (a successful rotation clears the degraded state).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/add", s.instrument("add", s.readLocked(s.writeGate(s.handleAdd))))
	mux.HandleFunc("/query", s.instrument("query", s.readLocked(s.handleQuery)))
	mux.HandleFunc("/join", s.instrument("join", s.readLocked(s.writeGate(s.handleJoin))))
	mux.HandleFunc("/delete", s.instrument("delete", s.readLocked(s.writeGate(s.handleDelete))))
	mux.HandleFunc("/snapshot", s.instrument("snapshot", s.readLocked(s.handleSnapshot)))
	mux.HandleFunc("/stats", requireGet(s.readLocked(s.handleStats)))
	mux.HandleFunc("/replication", requireGet(s.handleReplication))
	mux.HandleFunc("/replication/register", s.handleRegister)
	mux.HandleFunc("/replication/apply", s.handleApply)
	mux.HandleFunc("/promote", s.handlePromote)
	mux.HandleFunc("/healthz", requireGet(func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: answers while the process can serve at all, even
		// degraded — orchestrators must not restart a replica that is
		// serving reads and waiting out a disk fault. Readiness (routing)
		// is /readyz.
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/readyz", requireGet(s.readLocked(s.handleReady)))
	// Worker-side cluster endpoints: the executor surface a coordinator
	// (tsjserve -coordinator) drives for the distributed join. They are
	// corpus-backed, so an in-memory node answers 409.
	mux.HandleFunc("/cluster/strings", s.readLocked(s.workerExt(distrib.WorkerExt.ServeStrings)))
	mux.HandleFunc("/cluster/probe", s.readLocked(s.workerExt(distrib.WorkerExt.ServeProbe)))
	mux.HandleFunc("/cluster/selfjoin", s.readLocked(s.workerExt(distrib.WorkerExt.ServeSelfJoin)))
	return mux
}

// workerExt adapts a distrib.WorkerExt method to this server: the
// corpus handle is re-read per request (a standby bootstrap swaps it;
// callers hold the engine read lock via readLocked), and nodes without
// a corpus reject the endpoint.
func (s *Server) workerExt(h func(distrib.WorkerExt, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.c == nil {
			http.Error(w, "no -data directory: cluster join endpoints require a corpus", http.StatusConflict)
			return
		}
		h(distrib.WorkerExt{C: s.c}, w, r)
	}
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

// statusWriter captures the response status so the middleware can count
// error responses without inspecting handler internals.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument is the request-lifecycle wrapper: load-shedding semaphore,
// panic-to-500 recovery, status capture for the error counters, and the
// latency histogram.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.lat[name]
	ctr := s.ctr[name]
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			ctr.shed.Add(1)
			ctr.errors.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: concurrency limit reached", http.StatusServiceUnavailable)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				ctr.panics.Add(1)
				ctr.errors.Add(1)
				log.Printf("panic in /%s: %v\n%s", name, p, debug.Stack())
				if sw.status == 0 {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			} else if sw.status >= http.StatusBadRequest {
				ctr.errors.Add(1)
			}
			hist.Observe(time.Since(start))
		}()
		h(sw, r)
	}
}

// writeGate fails mutating requests fast: a standby is read-only by
// role (writes go to the primary; promotion lifts this), and a degraded
// corpus is read-only by circumstance — either way before the request
// touches the write path.
func (s *Server) writeGate(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.roleName() == roleStandby {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "read-only standby: writes go to the primary (POST /promote to fail over)", http.StatusServiceUnavailable)
			return
		}
		if err := s.degraded(); err != nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "degraded, serving read-only: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// requireGet rejects everything but GET/HEAD on read-only endpoints.
func requireGet(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.roleName() == roleStandby && s.stby != nil && !s.stby.Ready() {
		// A standby is routable only as a warm, caught-up replica:
		// registered with the primary, not mid-bootstrap, in recent
		// contact. Anything else and its answers may be arbitrarily stale.
		w.Header().Set("Retry-After", "1")
		http.Error(w, "standby not ready: syncing or out of contact with the primary", http.StatusServiceUnavailable)
		return
	}
	if err := s.degraded(); err != nil {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "degraded: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
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
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.stby == nil {
		http.Error(w, "not a standby: nothing to promote", http.StatusConflict)
		return
	}
	already := s.roleName() == rolePrimary
	if err := s.stby.Promote(); err != nil {
		if errors.Is(err, replica.ErrSyncing) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "promote: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		// A seal failure (e.g. degraded corpus: the final fsync cannot be
		// trusted) leaves the standby unsealed and promotion retryable.
		persistError(w, "promote", err)
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

// persistError maps a persistence failure to its status: degraded-mode
// failures are 503 with Retry-After (the replica heals in place or an
// operator intervenes; the request is safe to retry elsewhere), anything
// else is a 500.
func persistError(w http.ResponseWriter, what string, err error) {
	if errors.Is(err, tsjoin.ErrDegraded) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, what+": "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, what+": "+err.Error(), http.StatusInternalServerError)
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req distrib.AddRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	id, matches, err := s.m.AddDurable(req.Name)
	if err != nil {
		persistError(w, "persistence failure", err)
		return
	}
	httpx.WriteJSON(w, distrib.AddResponse{ID: id, Matches: distrib.Matches(matches)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req distrib.QueryRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	httpx.WriteJSON(w, distrib.QueryResponse{Matches: distrib.Matches(s.m.Query(req.Name))})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req distrib.JoinRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	first, matches, err := s.m.AddAllDurable(req.Names)
	if err != nil {
		persistError(w, "persistence failure", err)
		return
	}
	results := make([]distrib.JoinResult, len(matches))
	for i, ms := range matches {
		results[i] = distrib.JoinResult{ID: first + i, Matches: distrib.Matches(ms)}
	}
	httpx.WriteJSON(w, distrib.JoinResponse{First: first, Results: results})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req distrib.DeleteRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if req.ID == nil {
		http.Error(w, "bad request: missing id", http.StatusBadRequest)
		return
	}
	// The matcher's delete keeps the live index and the corpus WAL (when
	// durable) in step. Unknown/double deletes are the caller's fault; a
	// WAL failure is ours.
	if err := s.m.Delete(*req.ID); err != nil {
		if errors.Is(err, tsjoin.ErrNotFound) {
			http.Error(w, "delete: "+err.Error(), http.StatusBadRequest)
			return
		}
		persistError(w, "delete", err)
		return
	}
	httpx.WriteJSON(w, distrib.DeleteResponse{Deleted: *req.ID})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Compact bool `json:"compact"`
	}
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if s.c == nil {
		http.Error(w, "no -data directory: the index is not persistent", http.StatusConflict)
		return
	}
	var err error
	if req.Compact {
		err = s.c.Compact()
	} else {
		err = s.c.Snapshot()
	}
	if err != nil {
		persistError(w, "snapshot", err)
		return
	}
	st := s.c.Stats()
	httpx.WriteJSON(w, struct {
		Generation uint64 `json:"generation"`
		Strings    int    `json:"strings"`
		Compacted  bool   `json:"compacted"`
	}{st.Generation, st.Strings, req.Compact})
}

// wireLatency is the JSON form of one endpoint's latency summary.
type wireLatency struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// wireEndpoint is the JSON form of one endpoint's error-path counters.
type wireEndpoint struct {
	Errors int64 `json:"errors"`
	Shed   int64 `json:"shed"`
	Panics int64 `json:"panics"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	lat := make(map[string]wireLatency, len(s.lat))
	for name, h := range s.lat {
		lat[name] = wireLatency{
			Count:  h.Count(),
			P50Ms:  ms(h.Quantile(0.50)),
			P95Ms:  ms(h.Quantile(0.95)),
			P99Ms:  ms(h.Quantile(0.99)),
			MeanMs: ms(h.Mean()),
		}
	}
	endpoints := make(map[string]wireEndpoint, len(s.ctr))
	for name, c := range s.ctr {
		endpoints[name] = wireEndpoint{
			Errors: c.errors.Load(),
			Shed:   c.shed.Load(),
			Panics: c.panics.Load(),
		}
	}
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
		Latency       map[string]wireLatency  `json:"latency"`
		Endpoints     map[string]wireEndpoint `json:"endpoints"`
		Degraded      bool                    `json:"degraded"`
		DegradedCause string                  `json:"degraded_cause,omitempty"`
		Corpus        *tsjoin.CorpusStats     `json:"corpus,omitempty"`
		Replication   *replStatus             `json:"replication,omitempty"`
	}{distrib.FromShardedStats(s.m.Stats()), lat, endpoints, degradedCause != "", degradedCause, corpusStats, repl})
}
