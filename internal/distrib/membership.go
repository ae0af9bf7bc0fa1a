package distrib

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/httpx"
)

// Run is the coordinator's membership loop: every Heartbeat it probes
// each shard's active worker (/healthz — pure liveness, so a degraded
// worker serving reads is not failed over), and after FailAfter
// consecutive misses promotes the shard's first promotable standby and
// repoints the partition map at it (epoch bump). It blocks until ctx
// ends.
func (co *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(co.opt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			co.CheckNow(ctx)
		}
	}
}

// CheckNow performs one heartbeat round synchronously (the loop body of
// Run; exported so tests and operators can force a round without
// waiting out the interval).
func (co *Coordinator) CheckNow(ctx context.Context) {
	pm := co.mapView()
	for i, sh := range pm.Shards {
		up := co.probe(ctx, sh.Worker)
		co.mu.Lock()
		if up {
			co.fails[i] = 0
			co.alive[i] = true
			co.mu.Unlock()
			continue
		}
		co.fails[i]++
		fails := co.fails[i]
		dead := fails >= co.opt.FailAfter
		if dead {
			co.alive[i] = false
		}
		co.mu.Unlock()
		co.opt.Logf("distrib: shard %d worker %s missed heartbeat (%d/%d)", i, sh.Worker, fails, co.opt.FailAfter)
		if dead {
			co.failover(ctx, i)
		}
	}
}

// probe is one liveness check against a worker's /healthz.
func (co *Coordinator) probe(ctx context.Context, base string) bool {
	ctx, cancel := context.WithTimeout(ctx, co.opt.Heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// failover promotes the dead shard's first promotable standby: POST
// /promote seals the standby's applier and flips it into a writable
// primary (the PR 8 path), then the partition map is repointed at it —
// the old worker is demoted into the back of the chain in case it comes
// back — and the epoch bumps so every cached map is detectably stale.
// A standby that refuses (a snapshot install in flight, or a disk that
// cannot seal) is skipped; with no promotable standby the shard stays
// dead and /readyz reports it.
func (co *Coordinator) failover(ctx context.Context, shard int) {
	co.mu.RLock()
	sh := co.pm.Shards[shard]
	standbys := append([]string(nil), sh.Standbys...)
	oldWorker := sh.Worker
	co.mu.RUnlock()
	for k, sb := range standbys {
		if err := co.promote(ctx, sb); err != nil {
			co.opt.Logf("distrib: shard %d standby %s refused promotion: %v", shard, sb, err)
			continue
		}
		co.mu.Lock()
		// Re-check under the lock: another path may have repointed the
		// shard while we were promoting.
		if co.pm.Shards[shard].Worker != oldWorker {
			co.mu.Unlock()
			return
		}
		rest := append([]string(nil), standbys[:k]...)
		rest = append(rest, standbys[k+1:]...)
		rest = append(rest, oldWorker) // demoted; may rejoin as a standby
		co.pm.Shards[shard].Worker = sb
		co.pm.Shards[shard].Standbys = rest
		co.pm.Epoch++
		co.alive[shard] = true
		co.fails[shard] = 0
		co.failovers[shard]++
		epoch := co.pm.Epoch
		co.mu.Unlock()
		co.opt.Logf("distrib: shard %d failed over %s -> %s (epoch %d)", shard, oldWorker, sb, epoch)
		return
	}
	co.opt.Logf("distrib: shard %d has no promotable standby; shard is down", shard)
}

// promote drives one standby's POST /promote.
func (co *Coordinator) promote(ctx context.Context, base string) error {
	ctx, cancel := context.WithTimeout(ctx, co.opt.WriteTimeout)
	defer cancel()
	var resp struct {
		Role string `json:"role"`
		LSN  uint64 `json:"lsn"`
	}
	if err := httpx.PostJSON(ctx, co.client, base+"/promote", struct{}{}, &resp, co.opt.WriteTimeout, 1<<16); err != nil {
		return err
	}
	if resp.Role != "primary" {
		return fmt.Errorf("promote: %s reports role %q", base, resp.Role)
	}
	return nil
}
