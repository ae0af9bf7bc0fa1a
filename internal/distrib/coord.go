package distrib

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/httpx"
	"repro/internal/token"
)

// Options configures a Coordinator. The zero value works for tests;
// production callers set the timeouts to their SLOs.
type Options struct {
	// Tokenizer must match the workers' (it decides routing and the
	// probe tokens of the distributed join). Default whitespace+punct.
	Tokenizer token.Tokenizer
	// QueryTimeout is the per-shard scatter deadline: a worker that has
	// not answered within it makes the shard "missing" for that query.
	// Default 2s.
	QueryTimeout time.Duration
	// WriteTimeout bounds one routed write (including its retries).
	// Default 5s.
	WriteTimeout time.Duration
	// Retry paces the hedged per-shard retry chain. Default 25ms..250ms.
	Retry backoff.Policy
	// Heartbeat is the membership probe interval; FailAfter the number
	// of consecutive missed probes before the coordinator declares the
	// worker dead and promotes a standby. Defaults 1s / 3.
	Heartbeat time.Duration
	FailAfter int
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Logf sinks coordinator logs; nil discards.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Tokenizer == nil {
		o.Tokenizer = token.WhitespaceAndPunct
	}
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 2 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 5 * time.Second
	}
	if o.Retry.Base <= 0 {
		o.Retry = backoff.Policy{Base: 25 * time.Millisecond, Cap: 250 * time.Millisecond}
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.Client == nil {
		o.Client = httpx.NewClient(2 * time.Second)
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// loc is one global id's placement.
type loc struct {
	shard int32
	local int32
}

// Coordinator owns the partition map, the global id table, and the
// scatter/routing logic. It serves the single-node wire contract over
// the cluster; see the package comment.
type Coordinator struct {
	opt    Options
	client *http.Client

	// mu guards the partition map, the id tables and the membership
	// state. Handlers read under RLock; heartbeat failover and the
	// id-assigning writes take the write lock only for the table update
	// itself (network calls happen outside it).
	mu        sync.RWMutex
	pm        Map
	locs      []loc   // global id -> placement
	g         [][]int // shard -> local id -> global id
	live      int     // live (undeleted) global ids
	alive     []bool  // per shard: heartbeat verdict
	fails     []int   // per shard: consecutive missed heartbeats
	failovers []int   // per shard: promotions performed

	// writeMu serializes the id-assigning endpoints (/add, /join,
	// /delete): global ids are arrival sequence numbers, exactly like a
	// single node's, which is what makes cluster results byte-identical
	// to single-node results.
	writeMu sync.Mutex
}

// New builds a coordinator over an initial partition map.
func New(pm Map, opt Options) *Coordinator {
	opt = opt.withDefaults()
	n := len(pm.Shards)
	co := &Coordinator{
		opt:       opt,
		client:    opt.Client,
		pm:        pm.clone(),
		g:         make([][]int, n),
		alive:     make([]bool, n),
		fails:     make([]int, n),
		failovers: make([]int, n),
	}
	for i := range co.alive {
		co.alive[i] = true // innocent until a heartbeat says otherwise
	}
	return co
}

// mapView returns a copy of the current partition map.
func (co *Coordinator) mapView() Map {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.pm.clone()
}

// Status snapshots the membership/partition view (GET /cluster).
func (co *Coordinator) Status() ClusterStatus {
	co.mu.RLock()
	defer co.mu.RUnlock()
	st := ClusterStatus{Epoch: co.pm.Epoch, Strings: len(co.locs), Live: co.live}
	for i, sh := range co.pm.Shards {
		st.Shards = append(st.Shards, ShardStatus{
			Worker:    sh.Worker,
			Standbys:  append([]string(nil), sh.Standbys...),
			Alive:     co.alive[i],
			Strings:   len(co.g[i]),
			Failovers: co.failovers[i],
		})
	}
	return st
}

// Handler builds the coordinator's route table.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/add", co.epochChecked(co.handleAdd))
	mux.HandleFunc("/query", co.epochChecked(co.handleQuery))
	mux.HandleFunc("/join", co.epochChecked(co.handleJoin))
	mux.HandleFunc("/delete", co.epochChecked(co.handleDelete))
	mux.HandleFunc("/cluster", co.handleCluster)
	mux.HandleFunc("/cluster/selfjoin", co.handleSelfJoin)
	mux.HandleFunc("/stats", co.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", co.handleReady)
	return mux
}

// epochChecked rejects requests stamped with a stale partition-map
// epoch: 409 plus the current map, so one round trip refreshes the
// caller. Requests without the header are trusted (the coordinator
// itself routes them against the live map).
func (co *Coordinator) epochChecked(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if hdr := r.Header.Get(EpochHeader); hdr != "" {
			want, err := strconv.ParseUint(hdr, 10, 64)
			if err != nil {
				http.Error(w, "bad "+EpochHeader+" header", http.StatusBadRequest)
				return
			}
			if cur := co.mapView().Epoch; want != cur {
				httpx.WriteJSONStatus(w, http.StatusConflict, StaleEpochResponse{
					Error:   fmt.Sprintf("stale partition map: epoch %d, cluster at %d", want, cur),
					Cluster: co.Status(),
				})
				return
			}
		}
		h(w, r)
	}
}

func (co *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	httpx.WriteJSON(w, co.Status())
}

func (co *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	co.mu.RLock()
	var dead []int
	for i, ok := range co.alive {
		if !ok {
			dead = append(dead, i)
		}
	}
	co.mu.RUnlock()
	if len(dead) > 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("not ready: shards %v have no live worker", dead), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// ---- Routed writes -------------------------------------------------------

// routeError maps a routing failure onto the client response: worker
// rejections (and the coordinator's own verdicts, which addOne reports
// in the same *httpx.StatusError form) pass through with their status,
// transport failures are 502, deadline exhaustion 503 (retryable).
func routeError(w http.ResponseWriter, what string, err error) {
	if se, ok := httpx.Status(err); ok {
		// The owning worker answered: its verdict (400 double delete, 503
		// degraded, ...) is the cluster's verdict.
		if se.Code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, what+": "+se.Body, se.Code)
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, what+": worker did not answer in time: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, what+": "+err.Error(), http.StatusBadGateway)
}

// addOne routes one /add: owner-shard add plus a scatter query of every
// other shard, merged into the single-node response. Caller holds
// writeMu.
func (co *Coordinator) addOne(ctx context.Context, name string) (int, []Match, error) {
	pm := co.mapView()
	owner := pm.OwnerOf(name, co.opt.Tokenizer)
	var resp AddResponse
	if err := co.rpc(ctx, owner, false, "/add", AddRequest{Name: name}, &resp, co.opt.QueryTimeout); err != nil {
		return 0, nil, err
	}

	// Register the global id. The local id must be the next one we have
	// seen from this shard — anything else means a write bypassed the
	// coordinator and the translation table is no longer authoritative.
	co.mu.Lock()
	if resp.ID != len(co.g[owner]) {
		co.mu.Unlock()
		return 0, nil, &httpx.StatusError{Code: http.StatusBadGateway,
			Body: fmt.Sprintf("shard %d assigned local id %d, expected %d: out-of-band writes detected", owner, resp.ID, len(co.g[owner]))}
	}
	gid := len(co.locs)
	co.locs = append(co.locs, loc{shard: int32(owner), local: int32(resp.ID)})
	co.g[owner] = append(co.g[owner], gid)
	co.live++
	co.mu.Unlock()

	merged, missing, err := co.mergeScatter(ctx, name, owner, resp.Matches)
	if err != nil {
		return 0, nil, err
	}
	if len(missing) > 0 {
		// The string IS indexed (the owner committed it); the match list
		// would be incomplete, and /add has no partial mode. Fail closed.
		return 0, nil, &httpx.StatusError{Code: http.StatusServiceUnavailable,
			Body: fmt.Sprintf("shards %v did not answer: matches would be incomplete (string %d is indexed)", missing, gid)}
	}
	return gid, merged, nil
}

// mergeScatter queries every shard but owner, translates all local
// match ids (owner's included) to global ids and merges them in global
// id order — the single-node order.
func (co *Coordinator) mergeScatter(ctx context.Context, name string, owner int, ownerMatches []Match) ([]Match, []int, error) {
	results, missing := co.scatterQuery(ctx, name, owner)
	if owner >= 0 {
		results[owner] = ownerMatches
	}
	merged, err := co.toGlobal(results)
	if err != nil {
		return nil, nil, err
	}
	return merged, missing, nil
}

// toGlobal translates per-shard local matches to global ids and sorts.
// A local id past the end of the translation table is NOT an error: a
// concurrent /add may have committed on the worker before its response
// (and global id) reached the coordinator, and a racing query can
// legitimately see that string. Dropping the match serializes the query
// before the in-flight add — the answer a single node could also have
// given. Genuine out-of-band writes are still caught authoritatively on
// the write path (addOne's next-id check).
func (co *Coordinator) toGlobal(perShard [][]Match) ([]Match, error) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	var out []Match
	for shard, ms := range perShard {
		for _, m := range ms {
			if m.ID < 0 {
				return nil, fmt.Errorf("shard %d matched negative local id %d", shard, m.ID)
			}
			if m.ID >= len(co.g[shard]) {
				continue
			}
			out = append(out, Match{ID: co.g[shard][m.ID], SLD: m.SLD, NSLD: m.NSLD})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

func (co *Coordinator) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req AddRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	ctx, cancel := context.WithTimeout(r.Context(), co.opt.WriteTimeout)
	defer cancel()
	gid, matches, err := co.addOne(ctx, req.Name)
	if err != nil {
		routeError(w, "add", err)
		return
	}
	httpx.WriteJSON(w, AddResponse{ID: gid, Matches: emptyNotNull(matches)})
}

func (co *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(len(req.Names)+1)*co.opt.WriteTimeout)
	defer cancel()
	// writeMu makes this batch's ids consecutive from here, so first is
	// right even for an empty batch — the single node's answer.
	co.mu.RLock()
	first := len(co.locs)
	co.mu.RUnlock()
	results := make([]JoinResult, 0, len(req.Names))
	for _, name := range req.Names {
		gid, matches, err := co.addOne(ctx, name)
		if err != nil {
			// Like a single node's failed batch, earlier members stay
			// indexed; report where it broke.
			routeError(w, fmt.Sprintf("join: name %d of %d", len(results), len(req.Names)), err)
			return
		}
		results = append(results, JoinResult{ID: gid, Matches: emptyNotNull(matches)})
	}
	httpx.WriteJSON(w, JoinResponse{First: first, Results: results})
}

func (co *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if req.ID == nil {
		http.Error(w, "bad request: missing id", http.StatusBadRequest)
		return
	}
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	co.mu.RLock()
	var l loc
	known := *req.ID >= 0 && *req.ID < len(co.locs)
	if known {
		l = co.locs[*req.ID]
	}
	co.mu.RUnlock()
	if !known {
		http.Error(w, fmt.Sprintf("delete: no string with id %d", *req.ID), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.opt.WriteTimeout)
	defer cancel()
	local := int(l.local)
	var resp DeleteResponse
	if err := co.rpc(ctx, int(l.shard), false, "/delete", DeleteRequest{ID: &local}, &resp, co.opt.QueryTimeout); err != nil {
		routeError(w, "delete", err)
		return
	}
	co.mu.Lock()
	co.live--
	co.mu.Unlock()
	httpx.WriteJSON(w, DeleteResponse{Deleted: *req.ID})
}

// ---- Scatter-gather query ------------------------------------------------

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	partial := r.URL.Query().Get("partial") == "true"
	ctx, cancel := context.WithTimeout(r.Context(), co.opt.QueryTimeout+time.Second)
	defer cancel()
	results, missing := co.scatterQuery(ctx, req.Name, -1)
	if len(missing) > 0 && !partial {
		// Fail closed: an incomplete match set is silently wrong for the
		// screening use case. ?partial=true opts into degraded answers.
		w.Header().Set("Retry-After", "1")
		httpx.WriteJSONStatus(w, http.StatusServiceUnavailable, struct {
			Error         string `json:"error"`
			MissingShards []int  `json:"missing_shards"`
		}{fmt.Sprintf("shards %v did not answer within the deadline (use ?partial=true for partial results)", missing), missing})
		return
	}
	merged, err := co.toGlobal(results)
	if err != nil {
		http.Error(w, "query: "+err.Error(), http.StatusBadGateway)
		return
	}
	httpx.WriteJSON(w, QueryResponse{Matches: emptyNotNull(merged), MissingShards: missing})
}

// ---- Aggregated stats ----------------------------------------------------

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	pm := co.mapView()
	ctx, cancel := context.WithTimeout(r.Context(), co.opt.QueryTimeout)
	defer cancel()
	rows := make([]ClusterWorkerStats, len(pm.Shards))
	var wg sync.WaitGroup
	for i, sh := range pm.Shards {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			var ws WorkerStats
			if err := httpx.GetJSON(ctx, co.client, url+"/stats", &ws, co.opt.QueryTimeout, httpx.MaxBodyBytes); err != nil {
				rows[i] = ClusterWorkerStats{Worker: url, Error: err.Error()}
				return
			}
			rows[i] = ClusterWorkerStats{Worker: url, Alive: true, Stats: &ws}
		}(i, sh.Worker)
	}
	wg.Wait()
	// Fold the reachable workers' funnels into one cluster-wide view —
	// the remote-shard counterpart of the in-process shard merge.
	var agg WorkerStats
	total := agg.Sharded()
	for _, row := range rows {
		if row.Stats != nil {
			total.Merge(row.Stats.Sharded())
		}
	}
	st := co.Status()
	httpx.WriteJSON(w, ClusterStats{
		Epoch:   st.Epoch,
		Strings: st.Strings,
		Live:    st.Live,
		Cluster: FromShardedStats(total),
		Workers: rows,
	})
}

// emptyNotNull keeps "matches": [] instead of null on the wire, exactly
// like a single node's JSON.
func emptyNotNull(ms []Match) []Match {
	if ms == nil {
		return []Match{}
	}
	return ms
}
