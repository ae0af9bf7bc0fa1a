package distrib

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/mapreduce"
)

// shardStrings is one shard's live corpus snapshot (phase 0 output).
type shardStrings struct {
	shard int
	resp  StringsResponse
}

// sjTask is one phase-1 unit of work: j < 0 is shard i's local
// self-join; otherwise shard i's strings probed against shard j's
// stored corpus (the bipartite cross-shard leg).
type sjTask struct {
	i, j int
}

// SelfJoin is POST /cluster/selfjoin on the coordinator: the
// corpus-wide similarity join over every shard's live strings, returned
// as global-id pairs (A < B) — the cluster's version of a single node's
// SelfJoin over the union corpus. cfg must be valid (a threshold in
// [0, 1)); the workers would refuse it otherwise.
//
// It drives the paper's two phases through the internal/mapreduce seam
// with workers as the executors:
//
//   - Phase 0 (Job 1 analog — signature/statistics gathering): a map
//     task per shard fetches that worker's live strings as token
//     multisets (GET /cluster/strings), the probe-side feed for the
//     cross-shard legs.
//   - Phase 1 (Job 2 analog — candidate generation + verification): a
//     map task per (i, j) pair executes the join RPC on the worker —
//     the local self-join for i == j (POST /cluster/selfjoin) and the
//     bipartite probe join for i < j (shard i's strings POSTed to shard
//     j's /cluster/probe, which runs tsj.JoinCorpus against its durable
//     corpus) — then translates worker-local pair ids to global
//     ids through the coordinator's tables and emits each pair keyed by
//     its normalized (A, B) so the reduce phase deduplicates.
//
// The decomposition is exact: the join predicate is pairwise, every
// global pair lives on exactly one (i, j) task, and each worker runs
// the identical pipeline config. The result is sorted by (A, B).
func (co *Coordinator) SelfJoin(ctx context.Context, cfg JoinConfig) (PairsResponse, error) {
	co.mu.RLock()
	n := len(co.pm.Shards)
	gs := make([][]int, n)
	for i := range co.g {
		gs[i] = append([]int(nil), co.g[i]...)
	}
	co.mu.RUnlock()
	ctx, cancel := context.WithTimeout(ctx, time.Duration(n+1)*co.opt.WriteTimeout)
	defer cancel()

	// The engine has no error channel: map tasks record the first RPC or
	// translation failure here and later tasks short-circuit.
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}

	// call is one phase RPC: hedged across the shard's chain and bounded
	// by WriteTimeout, per leg and overall.
	call := func(shard int, path string, in, out any) error {
		ctx, cancel := context.WithTimeout(ctx, co.opt.WriteTimeout)
		defer cancel()
		return co.rpc(ctx, shard, true, path, in, out, co.opt.WriteTimeout)
	}

	// ---- Phase 0: gather every shard's live strings ----------------------
	shards := make([]int, n)
	for i := range shards {
		shards[i] = i
	}
	gathered, _ := mapreduce.Run(mapreduce.Config{Name: "distrib-selfjoin-gather"}, shards,
		func(shard int, mc *mapreduce.MapCtx[int, StringsResponse]) {
			if failed() {
				return
			}
			var resp StringsResponse
			if err := call(shard, "/cluster/strings", nil, &resp); err != nil {
				fail(fmt.Errorf("shard %d strings: %w", shard, err))
				return
			}
			if len(resp.IDs) != len(resp.Tokens) {
				fail(fmt.Errorf("shard %d strings: %d ids vs %d token rows", shard, len(resp.IDs), len(resp.Tokens)))
				return
			}
			// Trim rows the id snapshot does not cover: a concurrent add
			// may have committed on the worker after the snapshot was
			// taken. The join serializes before those adds.
			keep := 0
			for k, id := range resp.IDs {
				if id >= 0 && id < len(gs[shard]) {
					resp.IDs[keep], resp.Tokens[keep] = id, resp.Tokens[k]
					keep++
				}
			}
			resp.IDs, resp.Tokens = resp.IDs[:keep], resp.Tokens[:keep]
			mc.Emit(shard, resp)
		},
		func(shard int, vals []StringsResponse, rc *mapreduce.ReduceCtx[shardStrings]) {
			rc.Emit(shardStrings{shard: shard, resp: vals[0]})
		})
	if failed() {
		return PairsResponse{}, routed(firstErr)
	}
	strs := make([]StringsResponse, n)
	for _, g := range gathered {
		strs[g.shard] = g.resp
	}

	// ---- Phase 1: local self-joins + cross-shard probe joins -------------
	// toGlobalPair translates a worker-local id through the snapshot. An
	// id past the snapshot belongs to a concurrently-added string; pairs
	// touching one are dropped — the join serializes before that add (the
	// gather trim handles the probe side, this handles the stored side,
	// which keeps indexing new strings while the join runs).
	toGlobalPair := func(shard, local int) (int, bool) {
		if local < 0 || local >= len(gs[shard]) {
			return 0, false
		}
		return gs[shard][local], true
	}

	var tasks []sjTask
	for i := 0; i < n; i++ {
		tasks = append(tasks, sjTask{i: i, j: -1})
		for j := i + 1; j < n; j++ {
			tasks = append(tasks, sjTask{i: i, j: j})
		}
	}
	pairs, _ := mapreduce.Run(mapreduce.Config{Name: "distrib-selfjoin-join"}, tasks,
		func(t sjTask, mc *mapreduce.MapCtx[uint64, Pair]) {
			if failed() {
				return
			}
			emit := func(a, b int, p Pair) {
				if a > b {
					a, b = b, a
				}
				mc.Emit(uint64(uint32(a))<<32|uint64(uint32(b)), Pair{A: a, B: b, SLD: p.SLD, NSLD: p.NSLD})
			}
			if t.j < 0 {
				// Local leg: shard i's self-join over its stored state.
				var resp PairsResponse
				if err := call(t.i, "/cluster/selfjoin", SelfJoinRequest{JoinConfig: cfg}, &resp); err != nil {
					fail(fmt.Errorf("shard %d selfjoin: %w", t.i, err))
					return
				}
				for _, p := range resp.Pairs {
					a, aok := toGlobalPair(t.i, p.A)
					b, bok := toGlobalPair(t.i, p.B)
					if aok && bok {
						emit(a, b, p)
					}
				}
				return
			}
			// Cross leg: shard i's strings probe shard j's stored corpus.
			// p.A is shard-j local, p.B indexes the posted probes — i.e.
			// the row of shard i's live snapshot.
			if len(strs[t.i].IDs) == 0 {
				return
			}
			var resp PairsResponse
			if err := call(t.j, "/cluster/probe", ProbeJoinRequest{JoinConfig: cfg, Probes: strs[t.i].Tokens}, &resp); err != nil {
				fail(fmt.Errorf("shard %d probe from shard %d: %w", t.j, t.i, err))
				return
			}
			for _, p := range resp.Pairs {
				if p.B < 0 || p.B >= len(strs[t.i].IDs) {
					fail(fmt.Errorf("shard %d probe join returned probe index %d of %d", t.j, p.B, len(strs[t.i].IDs)))
					return
				}
				a, aok := toGlobalPair(t.j, p.A)
				b, bok := toGlobalPair(t.i, strs[t.i].IDs[p.B])
				if aok && bok {
					emit(a, b, p)
				}
			}
		},
		func(_ uint64, vals []Pair, rc *mapreduce.ReduceCtx[Pair]) {
			rc.Emit(vals[0])
		})
	if failed() {
		return PairsResponse{}, routed(firstErr)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if pairs == nil {
		pairs = []Pair{}
	}
	return PairsResponse{Pairs: pairs}, nil
}
