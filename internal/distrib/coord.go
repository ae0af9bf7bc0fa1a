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
	"repro/internal/workpool"
)

// Options configures a Coordinator. The zero value works for tests;
// production callers set the timeouts to their SLOs.
type Options struct {
	// Tokenizer must match the workers' (it decides routing and the
	// probe tokens of the distributed join). Default whitespace+punct.
	Tokenizer token.Tokenizer
	// QueryTimeout is the scatter deadline: a shard whose chain has not
	// answered within it is "missing" for that query. Default 2s.
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
	// Client carries every worker RPC: scatter, routed writes,
	// heartbeats and promotion. Default httpx.NewClient(2s), whose
	// transport keeps warm connections to each worker and makes each
	// RPC on the calling goroutine. Tests may inject another, e.g. one
	// whose transport wraps that one to inject faults.
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
// scatter/routing logic. Its methods answer the single-node wire
// contract over the cluster; see the package comment.
type Coordinator struct {
	opt    Options
	client *http.Client
	// pool runs the scatter's worker RPCs past the first, which runs on
	// the caller's goroutine.
	pool *workpool.Pool

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
		pool:      workpool.NewGrowing(),
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

// Close stops the goroutines the coordinator keeps for its scatter; the
// coordinator must not be used after.
func (co *Coordinator) Close() { co.pool.Close() }

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

// CheckEpoch vets a request's EpochHeader value against the live map:
// an empty one is trusted (the coordinator routes it against the live
// map itself), a malformed one is 400, and a stale one 409 whose reply
// is the current map, so one round trip refreshes the caller.
func (co *Coordinator) CheckEpoch(hdr string) error {
	if hdr == "" {
		return nil
	}
	want, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil {
		return &httpx.StatusError{Code: http.StatusBadRequest, Body: "bad " + EpochHeader + " header"}
	}
	if cur := co.mapView().Epoch; want != cur {
		msg := fmt.Sprintf("stale partition map: epoch %d, cluster at %d", want, cur)
		return &httpx.StatusError{Code: http.StatusConflict, Body: msg,
			Reply: StaleEpochResponse{Error: msg, Cluster: co.Status()}}
	}
	return nil
}

// Ready reports an error while some shard has no live worker.
func (co *Coordinator) Ready() error {
	var dead []int
	for i, sh := range co.Status().Shards {
		if !sh.Alive {
			dead = append(dead, i)
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("not ready: shards %v have no live worker", dead)
	}
	return nil
}

// ---- Routed writes -------------------------------------------------------

// routed gives a routing failure its client status: a worker's verdict
// keeps its status and body (it carries the worker's URL, so the
// serving front relays it unchanged), the coordinator's own verdict,
// which addOne reports in the same form, keeps its status, deadline
// exhaustion is 503 (retryable), and any other transport failure is
// 502.
func routed(err error) *httpx.StatusError {
	if se, ok := httpx.Status(err); ok {
		// The owning worker answered: its verdict (400 double delete, 503
		// degraded, ...) is the cluster's verdict.
		return se
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &httpx.StatusError{Code: http.StatusServiceUnavailable, Body: "worker did not answer in time: " + err.Error()}
	}
	return &httpx.StatusError{Code: http.StatusBadGateway, Body: err.Error()}
}

// addOne routes one /add: owner-shard add plus a scatter query of every
// other shard, merged into the single-node response. Caller holds
// writeMu.
func (co *Coordinator) addOne(ctx context.Context, name string) (AddResponse, error) {
	pm := co.mapView()
	owner := pm.OwnerOf(name, co.opt.Tokenizer)
	var resp AddResponse
	if err := co.rpc(ctx, owner, false, "/add", AddRequest{Name: name}, &resp, co.opt.QueryTimeout); err != nil {
		return AddResponse{}, err
	}

	// Register the global id. The local id must be the next one we have
	// seen from this shard — anything else means a write bypassed the
	// coordinator and the translation table is no longer authoritative.
	co.mu.Lock()
	if resp.ID != len(co.g[owner]) {
		co.mu.Unlock()
		return AddResponse{}, &httpx.StatusError{Code: http.StatusBadGateway,
			Body: fmt.Sprintf("shard %d assigned local id %d, expected %d: out-of-band writes detected", owner, resp.ID, len(co.g[owner]))}
	}
	gid := len(co.locs)
	co.locs = append(co.locs, loc{shard: int32(owner), local: int32(resp.ID)})
	co.g[owner] = append(co.g[owner], gid)
	co.live++
	co.mu.Unlock()

	results, missing := co.scatterQuery(ctx, name, owner)
	results[owner] = resp.Matches
	merged, err := co.toGlobal(results)
	if err != nil {
		return AddResponse{}, err
	}
	if len(missing) > 0 {
		// The string IS indexed (the owner committed it); the match list
		// would be incomplete, and /add has no partial mode. Fail closed.
		return AddResponse{}, &httpx.StatusError{Code: http.StatusServiceUnavailable,
			Body: fmt.Sprintf("shards %v did not answer: matches would be incomplete (string %d is indexed)", missing, gid)}
	}
	return AddResponse{ID: gid, Matches: merged}, nil
}

// toGlobal translates per-shard local matches to global ids and sorts
// them into the single-node order; the result is never nil, so an empty
// list encodes as [] like a single node's.
//
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
	out := []Match{}
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

// Add is POST /add over the cluster: the string is indexed on its owner
// shard under the next global id, and matched against every shard.
func (co *Coordinator) Add(ctx context.Context, name string) (AddResponse, error) {
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, co.opt.WriteTimeout)
	defer cancel()
	resp, err := co.addOne(ctx, name)
	if err != nil {
		return AddResponse{}, routed(err)
	}
	return resp, nil
}

// Join is POST /join over the cluster: the names are added in order
// under consecutive global ids. Like a single node's failed batch, a
// failure leaves the earlier names indexed; its error says where the
// batch broke.
func (co *Coordinator) Join(ctx context.Context, names []string) (JoinResponse, error) {
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(len(names)+1)*co.opt.WriteTimeout)
	defer cancel()
	// writeMu makes this batch's ids consecutive from here, so first is
	// right even for an empty batch — the single node's answer.
	co.mu.RLock()
	first := len(co.locs)
	co.mu.RUnlock()
	results := make([]JoinResult, 0, len(names))
	for _, name := range names {
		resp, err := co.addOne(ctx, name)
		if err != nil {
			se := routed(err)
			return JoinResponse{}, &httpx.StatusError{Code: se.Code,
				Body: fmt.Sprintf("name %d of %d: %s", len(results), len(names), se.Body)}
		}
		results = append(results, JoinResult(resp))
	}
	return JoinResponse{First: first, Results: results}, nil
}

// Delete is POST /delete over the cluster: the global id's owner shard
// tombstones its local id. An id the coordinator never assigned is 400.
func (co *Coordinator) Delete(ctx context.Context, id int) (DeleteResponse, error) {
	co.writeMu.Lock()
	defer co.writeMu.Unlock()
	co.mu.RLock()
	var l loc
	known := id >= 0 && id < len(co.locs)
	if known {
		l = co.locs[id]
	}
	co.mu.RUnlock()
	if !known {
		return DeleteResponse{}, &httpx.StatusError{Code: http.StatusBadRequest, Body: fmt.Sprintf("no string with id %d", id)}
	}
	ctx, cancel := context.WithTimeout(ctx, co.opt.WriteTimeout)
	defer cancel()
	local := int(l.local)
	var resp DeleteResponse
	if err := co.rpc(ctx, int(l.shard), false, "/delete", DeleteRequest{ID: &local}, &resp, co.opt.QueryTimeout); err != nil {
		return DeleteResponse{}, routed(err)
	}
	co.mu.Lock()
	co.live--
	co.mu.Unlock()
	return DeleteResponse{Deleted: id}, nil
}

// ---- Scatter-gather query ------------------------------------------------

// Query is POST /query over the cluster: a scatter of every shard merged
// in global id order. A shard that does not answer in time fails the
// query closed — an incomplete match set is silently wrong for the
// screening use case — with a 503 naming missing_shards, unless partial
// opts into the survivors' matches plus MissingShards.
func (co *Coordinator) Query(ctx context.Context, name string, partial bool) (QueryResponse, error) {
	results, missing := co.scatterQuery(ctx, name, -1)
	if len(missing) > 0 && !partial {
		msg := fmt.Sprintf("shards %v did not answer within the deadline (use ?partial=true for partial results)", missing)
		return QueryResponse{}, &httpx.StatusError{Code: http.StatusServiceUnavailable, Body: msg,
			Reply: struct {
				Error         string `json:"error"`
				MissingShards []int  `json:"missing_shards"`
			}{msg, missing}}
	}
	merged, err := co.toGlobal(results)
	if err != nil {
		return QueryResponse{}, &httpx.StatusError{Code: http.StatusBadGateway, Body: err.Error()}
	}
	return QueryResponse{Matches: merged, MissingShards: missing}, nil
}

// ---- Aggregated stats ----------------------------------------------------

// Stats is the cluster's GET /stats: every worker's /stats row, and the
// reachable workers' funnels folded into one cluster-wide view — the
// remote-shard counterpart of the in-process shard merge.
func (co *Coordinator) Stats(ctx context.Context) ClusterStats {
	pm := co.mapView()
	ctx, cancel := context.WithTimeout(ctx, co.opt.QueryTimeout)
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
	var agg WorkerStats
	total := agg.Sharded()
	for _, row := range rows {
		if row.Stats != nil {
			total.Merge(row.Stats.Sharded())
		}
	}
	st := co.Status()
	return ClusterStats{
		Epoch:   st.Epoch,
		Strings: st.Strings,
		Live:    st.Live,
		Cluster: FromShardedStats(total),
		Workers: rows,
	}
}
