package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	tsjoin "repro"
	"repro/internal/distrib"
	"repro/internal/histo"
	"repro/internal/httpx"
	"repro/internal/replica"
)

// backend is what the shared /add, /query, /join and /delete handlers
// serve: a node's own matcher or a coordinator's cluster. A failed call
// returns an error writeError maps to the response status.
type backend interface {
	Add(ctx context.Context, name string) (distrib.AddResponse, error)
	// Query matches without indexing; partial (?partial=true) lets a
	// coordinator answer without the shards it could not reach.
	Query(ctx context.Context, name string, partial bool) (distrib.QueryResponse, error)
	Join(ctx context.Context, names []string) (distrib.JoinResponse, error)
	Delete(ctx context.Context, id int) (distrib.DeleteResponse, error)
}

// endpointCounters are one instrumented endpoint's error-path tallies.
type endpointCounters struct {
	// errors counts responses with status >= 400 (including sheds and
	// panics); shed counts requests rejected at the concurrency limit;
	// panics counts handler panics converted to 500s.
	errors atomic.Int64
	shed   atomic.Int64
	panics atomic.Int64
}

// front is the request lifecycle both roles serve under: one latency
// histogram and one set of error counters per instrumented endpoint,
// keyed by the endpoint name reported in /stats and filled in while the
// routes are built, and the load-shedding semaphore shared by all of
// them.
type front struct {
	lat map[string]*histo.Histogram
	ctr map[string]*endpointCounters
	// inflight is the load-shedding semaphore: a request that cannot
	// acquire a slot without blocking is rejected with 503 rather than
	// queued — queueing under overload only converts overload into
	// latency and memory growth.
	inflight chan struct{}
}

func newFront(maxInflight int) *front {
	if maxInflight <= 0 {
		maxInflight = 256
	}
	return &front{
		lat:      make(map[string]*histo.Histogram),
		ctr:      make(map[string]*endpointCounters),
		inflight: make(chan struct{}, maxInflight),
	}
}

// mount serves the wire contract on mux over b: /add, /query, /join and
// /delete under the request lifecycle, each behind guard (a node pins
// its engine handles, a coordinator checks the epoch header), and
// /healthz.
func (f *front) mount(mux *http.ServeMux, b backend, guard func(http.HandlerFunc) http.HandlerFunc) {
	handle := func(name string, h http.HandlerFunc) {
		mux.HandleFunc("/"+name, f.instrument(name, guard(h)))
	}
	handle("add", endpoint("add", func(r *http.Request, req distrib.AddRequest) (distrib.AddResponse, error) {
		return b.Add(r.Context(), req.Name)
	}))
	handle("query", endpoint("query", func(r *http.Request, req distrib.QueryRequest) (distrib.QueryResponse, error) {
		return b.Query(r.Context(), req.Name, r.URL.Query().Get("partial") == "true")
	}))
	handle("join", endpoint("join", func(r *http.Request, req distrib.JoinRequest) (distrib.JoinResponse, error) {
		return b.Join(r.Context(), req.Names)
	}))
	handle("delete", endpoint("delete", func(r *http.Request, req distrib.DeleteRequest) (distrib.DeleteResponse, error) {
		if req.ID == nil {
			return distrib.DeleteResponse{}, &httpx.StatusError{Code: http.StatusBadRequest, Body: "bad request: missing id"}
		}
		return b.Delete(r.Context(), *req.ID)
	}))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Pure liveness: answers while the process can serve at all, even
		// degraded — orchestrators must not restart a replica that is
		// serving reads and waiting out a disk fault. Readiness (routing)
		// is /readyz.
		fmt.Fprintln(w, "ok")
	})
}

// endpoint is one JSON endpoint: decode the POSTed Req, call, and answer
// the response or the error's status.
func endpoint[Req, Resp any](what string, call func(*http.Request, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !httpx.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := call(r, req)
		if err != nil {
			writeError(w, what, err)
			return
		}
		httpx.WriteJSON(w, resp)
	}
}

// writeError answers a failed request; it is the one mapping from error
// to status for both roles. An *httpx.StatusError keeps its status (and
// answers its Reply as the JSON body, when set, or a peer's body
// unchanged, when it carries the peer's URL); an unknown id is the
// caller's fault (400); a degraded corpus or a syncing standby is 503 —
// the node heals in place or an operator intervenes, and the request is
// safe to retry elsewhere; anything else is 500. Every 503 carries
// Retry-After.
func writeError(w http.ResponseWriter, what string, err error) {
	code, msg := http.StatusInternalServerError, what+": "+err.Error()
	se, isStatus := httpx.Status(err)
	switch {
	case isStatus && se.URL != "":
		code, msg = se.Code, se.Body // a peer's verdict: it names the operation
	case isStatus:
		code, msg = se.Code, what+": "+se.Body
	case errors.Is(err, tsjoin.ErrNotFound):
		code = http.StatusBadRequest
	case errors.Is(err, tsjoin.ErrDegraded), errors.Is(err, replica.ErrSyncing):
		code = http.StatusServiceUnavailable
	}
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	if isStatus && se.Reply != nil {
		httpx.WriteJSONStatus(w, code, se.Reply)
		return
	}
	http.Error(w, msg, code)
}

// readyz is GET /readyz over a role's readiness check.
func readyz(ready func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := ready(); err != nil {
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
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
// latency histogram. It registers name's histogram and counters, so it
// is called while the routes are built, before serving.
func (f *front) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	if f.lat[name] == nil {
		f.lat[name], f.ctr[name] = &histo.Histogram{}, &endpointCounters{}
	}
	hist, ctr := f.lat[name], f.ctr[name]
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case f.inflight <- struct{}{}:
			defer func() { <-f.inflight }()
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

// lifecycleStats is the lifecycle's section of either role's /stats.
type lifecycleStats struct {
	Latency   map[string]wireLatency  `json:"latency"`
	Endpoints map[string]wireEndpoint `json:"endpoints"`
}

func (f *front) stats() lifecycleStats {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	st := lifecycleStats{
		Latency:   make(map[string]wireLatency, len(f.lat)),
		Endpoints: make(map[string]wireEndpoint, len(f.ctr)),
	}
	for name, h := range f.lat {
		st.Latency[name] = wireLatency{
			Count:  h.Count(),
			P50Ms:  ms(h.Quantile(0.50)),
			P95Ms:  ms(h.Quantile(0.95)),
			P99Ms:  ms(h.Quantile(0.99)),
			MeanMs: ms(h.Mean()),
		}
	}
	for name, c := range f.ctr {
		st.Endpoints[name] = wireEndpoint{
			Errors: c.errors.Load(),
			Shed:   c.shed.Load(),
			Panics: c.panics.Load(),
		}
	}
	return st
}

// joinOptions validates the wire join configuration of either role's
// POST /cluster/selfjoin (and a node's /cluster/probe) and maps it onto
// the join options — the one place the translation lives, so every
// worker runs the phases identically.
func joinOptions(c distrib.JoinConfig) (tsjoin.Options, error) {
	if !(c.Threshold >= 0 && c.Threshold < 1) { // also rejects NaN
		return tsjoin.Options{}, &httpx.StatusError{Code: http.StatusBadRequest, Body: "bad request: threshold must be in [0, 1)"}
	}
	opts := tsjoin.Options{Threshold: c.Threshold, MaxTokenFreq: c.MaxTokenFreq}
	if c.ExactTokens {
		opts.Matching = tsjoin.ExactTokenMatching
	}
	if c.Greedy {
		opts.Aligning = tsjoin.GreedyAligning
	}
	return opts, nil
}

// CoordinatorHandler serves a cluster coordinator behind the same front
// a node serves: the shared /add, /query, /join and /delete handlers
// (after the epoch check) under the request lifecycle — maxInflight
// sheds, panics become 500s, latency is recorded — plus /cluster,
// /cluster/selfjoin, /stats (the cluster aggregate plus the lifecycle's
// latency and endpoints sections), /healthz and /readyz.
func CoordinatorHandler(co *distrib.Coordinator, maxInflight int) http.Handler {
	f := newFront(maxInflight)
	mux := http.NewServeMux()
	f.mount(mux, co, func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if err := co.CheckEpoch(r.Header.Get(distrib.EpochHeader)); err != nil {
				writeError(w, "epoch", err)
				return
			}
			h(w, r)
		}
	})
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, co.Status())
	})
	mux.HandleFunc("/cluster/selfjoin", endpoint("selfjoin", func(r *http.Request, req distrib.SelfJoinRequest) (distrib.PairsResponse, error) {
		if _, err := joinOptions(req.JoinConfig); err != nil {
			return distrib.PairsResponse{}, err
		}
		return co.SelfJoin(r.Context(), req.JoinConfig)
	}))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, struct {
			distrib.ClusterStats
			lifecycleStats
		}{co.Stats(r.Context()), f.stats()})
	})
	mux.HandleFunc("GET /readyz", readyz(co.Ready))
	return mux
}
