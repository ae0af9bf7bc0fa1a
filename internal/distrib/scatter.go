package distrib

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/httpx"
)

// scatterQuery fans one /query out to every shard (except exclude, or
// -1 for all) under the per-shard deadline, with a hedged retry chain
// per shard: each attempt re-reads the partition map and walks the
// shard's current chain — active worker first, then its warm standbys —
// so a mid-query failover (or a promoted standby) answers later
// attempts, and a merely slow primary is hedged by a replica that holds
// the same acknowledged history. Shards that never answer are returned
// in missing (ascending); the caller decides the partial-result policy.
//
// Results are local-id match lists indexed by shard; translation to
// global ids is the caller's (toGlobal), because only the coordinator
// tables can do it consistently.
func (co *Coordinator) scatterQuery(ctx context.Context, name string, exclude int) ([][]Match, []int) {
	co.mu.RLock()
	n := len(co.pm.Shards)
	co.mu.RUnlock()
	results := make([][]Match, n)
	var (
		missMu  sync.Mutex
		missing []int
		wg      sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		if i == exclude {
			continue
		}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, co.opt.QueryTimeout)
			defer cancel()
			var resp QueryResponse
			if err := co.rpc(ctx, shard, true, "/query", QueryRequest{Name: name}, &resp, 0); err != nil {
				co.opt.Logf("distrib: query on shard %d failed: %v", shard, err)
				missMu.Lock()
				missing = append(missing, shard)
				missMu.Unlock()
				return
			}
			results[shard] = resp.Matches
		}(i)
	}
	wg.Wait()
	sort.Ints(missing)
	return results, missing
}

// rpc is the coordinator's one worker RPC: retry-with-backoff until ctx
// ends, each attempt re-reading the shard's chain from the partition map
// — the active worker, then its warm standbys when hedge is set (reads
// only: standbys are read-only) — so a mid-call failover heals the loop.
// A 503 member (a syncing standby, a resetting or degraded engine) or an
// unreachable one falls through to the next; any other worker answer is
// final. Returns the last attempt's error. in == nil sends a GET.
// timeout bounds one HTTP leg; 0 gives each leg half of what is left of
// ctx's deadline (perAttemptTimeout), so a slow primary leaves room to
// hedge.
func (co *Coordinator) rpc(ctx context.Context, shard int, hedge bool, path string, in, out any, timeout time.Duration) error {
	var last error
	err := httpx.Retry(ctx, co.opt.Retry, func() error {
		co.mu.RLock()
		sh := co.pm.Shards[shard]
		chain := []string{sh.Worker}
		if hedge {
			chain = append(chain, sh.Standbys...)
		}
		co.mu.RUnlock()
		for _, base := range chain {
			t := timeout
			if t == 0 {
				t = perAttemptTimeout(ctx, co.opt.Retry)
			}
			if in == nil {
				last = httpx.GetJSON(ctx, co.client, base+path, out, t, httpx.MaxBodyBytes)
			} else {
				last = httpx.PostJSON(ctx, co.client, base+path, in, out, t, httpx.MaxBodyBytes)
			}
			if se, answered := httpx.Status(last); last == nil || answered && se.Code != http.StatusServiceUnavailable {
				return nil
			}
		}
		return last
	}, func(attempt int, d time.Duration, err error) {
		co.opt.Logf("distrib: %s on shard %d failed (retry %d in %v): %v", path, shard, attempt, d, err)
	})
	if last == nil {
		return err
	}
	return last
}

// perAttemptTimeout slices the remaining deadline so at least a couple
// of hedged attempts fit inside the shard deadline: one attempt may use
// at most half of what is left (and never less than the retry base).
func perAttemptTimeout(ctx context.Context, pol backoff.Policy) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0 // ctx only
	}
	slice := time.Until(dl) / 2
	if slice < pol.Base {
		slice = pol.Base
	}
	return slice
}
