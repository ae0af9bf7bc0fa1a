package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/httpx"
)

// PrimaryOptions configures the shipper side.
type PrimaryOptions struct {
	// BatchRecords bounds one apply request (default 256; batchBytes
	// bounds its size).
	BatchRecords int
	// Heartbeat is how often a caught-up follower is pinged so it can
	// tell "primary idle" from "primary dead" (default 2s).
	Heartbeat time.Duration
	// RequestTimeout bounds one apply/heartbeat round trip — the stream
	// timeout (default 10s) — and an install's per batchBytes of snapshot.
	RequestTimeout time.Duration
	// Backoff paces per-follower retries after a failed round trip.
	// Zero Base means the default {250ms base, 15s cap, 0.25 jitter}.
	Backoff backoff.Policy
	// Client carries the shipped batches, heartbeats and installs.
	// Default httpx.NewClient, whose transport keeps warm connections to
	// each follower. Tests inject a fault-injecting one
	// (iofault.NetInjector wrapping that same transport);
	// RequestTimeout still applies per request.
	Client *http.Client
	// Logf receives replication events; nil discards.
	Logf func(format string, args ...any)
}

func (o *PrimaryOptions) fill() {
	if o.BatchRecords <= 0 {
		o.BatchRecords = defaultBatchRecords
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = defaultHeartbeat
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = defaultRequestTimeout
	}
	if o.Backoff.Base <= 0 {
		o.Backoff = backoff.Policy{Base: 250 * time.Millisecond, Cap: 15 * time.Second, Jitter: 0.25}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Primary ships the committed record stream of a Source to every
// registered follower, each on its own goroutine with its own cursor,
// retry state and lag accounting. Safe for concurrent use.
type Primary struct {
	src    Source
	opt    PrimaryOptions
	client *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	followers map[string]*follower
	closed    bool
}

// follower is one registered standby's shipping state.
type follower struct {
	url    string
	cancel context.CancelFunc

	mu         sync.Mutex
	state      string // streaming | resync | retrying | sealed
	acked      uint64
	lastAck    time.Time
	retries    int64
	resyncs    int64
	shipped    int64
	heartbeats int64
	lastErr    string
}

func (f *follower) set(fn func(*follower)) {
	f.mu.Lock()
	fn(f)
	f.mu.Unlock()
}

// FollowerStatus is one follower's externally visible state.
type FollowerStatus struct {
	URL   string `json:"url"`
	State string `json:"state"`
	// AckedLSN is the follower's last acknowledged offset; LagRecords
	// is the primary's LSN minus it — the records the follower would
	// lose if promoted this instant.
	AckedLSN   uint64 `json:"acked_lsn"`
	LagRecords uint64 `json:"lag_records"`
	// LastAckAgoMs is milliseconds since the last acknowledged round
	// trip (-1 before the first).
	LastAckAgoMs int64 `json:"last_ack_ago_ms"`
	// Retries counts failed round trips; Resyncs counts snapshot
	// installs; ShippedRecords counts records acknowledged; Heartbeats
	// counts idle pings.
	Retries        int64  `json:"retries"`
	Resyncs        int64  `json:"resyncs"`
	ShippedRecords int64  `json:"shipped_records"`
	Heartbeats     int64  `json:"heartbeats"`
	LastError      string `json:"last_error,omitempty"`
}

// PrimaryStatus is the shipper's externally visible state.
type PrimaryStatus struct {
	LSN       uint64           `json:"lsn"`
	Followers []FollowerStatus `json:"followers"`
}

// NewPrimary creates a shipper over src. Followers attach via Register
// (normally through ServeRegister); Close stops every ship loop.
func NewPrimary(src Source, opt PrimaryOptions) *Primary {
	opt.fill()
	client := opt.Client
	if client == nil {
		client = httpx.NewClient(connectTimeout)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Primary{
		src:       src,
		opt:       opt,
		client:    client,
		ctx:       ctx,
		cancel:    cancel,
		followers: make(map[string]*follower),
	}
}

// Register attaches (or re-attaches) the follower advertising the given
// base URL, shipping from its reported LSN. A re-registration replaces
// the previous ship loop — the standby watchdog re-registers whenever
// heartbeats stop, so this is the reconnect path too.
func (p *Primary) Register(advertise string, lsn uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("replica: primary closed")
	}
	if old := p.followers[advertise]; old != nil {
		old.cancel()
	}
	ctx, cancel := context.WithCancel(p.ctx)
	f := &follower{url: advertise, cancel: cancel, state: "streaming", acked: lsn}
	p.followers[advertise] = f
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.shipLoop(ctx, f, lsn)
	}()
	p.opt.Logf("replica: follower %s registered at lsn %d", advertise, lsn)
	return nil
}

// ServeRegister is the HTTP handler for POST /replication/register.
func (p *Primary) ServeRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req registerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil || req.Advertise == "" {
		http.Error(w, "bad register request", http.StatusBadRequest)
		return
	}
	if err := p.Register(req.Advertise, req.LSN); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	httpx.WriteJSON(w, registerResponse{OK: true, LSN: p.src.LSN()})
}

// Status snapshots the shipper and every follower, sorted by URL.
func (p *Primary) Status() PrimaryStatus {
	lsn := p.src.LSN()
	p.mu.Lock()
	fs := make([]*follower, 0, len(p.followers))
	for _, f := range p.followers {
		fs = append(fs, f)
	}
	p.mu.Unlock()
	st := PrimaryStatus{LSN: lsn, Followers: make([]FollowerStatus, 0, len(fs))}
	for _, f := range fs {
		f.mu.Lock()
		lag := uint64(0)
		if lsn > f.acked {
			lag = lsn - f.acked
		}
		ago := int64(-1)
		if !f.lastAck.IsZero() {
			ago = time.Since(f.lastAck).Milliseconds()
		}
		st.Followers = append(st.Followers, FollowerStatus{
			URL:            f.url,
			State:          f.state,
			AckedLSN:       f.acked,
			LagRecords:     lag,
			LastAckAgoMs:   ago,
			Retries:        f.retries,
			Resyncs:        f.resyncs,
			ShippedRecords: f.shipped,
			Heartbeats:     f.heartbeats,
			LastError:      f.lastErr,
		})
		f.mu.Unlock()
	}
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].URL < st.Followers[j].URL })
	return st
}

// Close stops every ship loop and waits for them.
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cancel()
	p.wg.Wait()
}

// shipLoop drives one follower: stream from the ring, install a
// snapshot when the ring cannot serve the cursor, heartbeat when caught
// up. The follower's authoritative LSN (from every response) is the only
// cursor — the loop never assumes a send "worked" beyond what was acked.
func (p *Primary) shipLoop(ctx context.Context, f *follower, next uint64) {
	for ctx.Err() == nil {
		payloads, err := p.src.ShipFrom(next, p.opt.BatchRecords, batchBytes)
		if err != nil {
			// Behind the ring or diverged: seed it with a snapshot.
			n, ok := p.install(ctx, f)
			if !ok {
				return
			}
			next = n
			continue
		}
		if len(payloads) == 0 {
			// Caught up. Grab the notify channel, then re-check — a commit
			// between ShipFrom and ShipNotify would otherwise be slept on.
			ch := p.src.ShipNotify()
			if p.src.LSN() != next {
				continue
			}
			select {
			case <-ctx.Done():
				return
			case <-ch:
				continue
			case <-time.After(p.opt.Heartbeat):
			}
			// Idle for a heartbeat interval: the send below carries no
			// frames, which is the heartbeat.
		}
		var resp applyResponse
		req := applyRequest{From: next, Frames: makeFrames(payloads)}
		if !p.retry(ctx, f, func() error {
			return httpx.PostJSON(ctx, p.client, f.url+"/replication/apply", req, &resp, p.opt.RequestTimeout, 1<<20)
		}) {
			return
		}
		if resp.Sealed {
			p.sealFollower(f)
			return
		}
		// resp.LSN is authoritative: a clean apply lands at
		// next+len(payloads); a duplicate-suppressed retry or a standby
		// restart lands elsewhere and the loop resumes from there (the
		// ring — or an install — serves whatever gap remains).
		// Any answered round trip, a heartbeat included, ends a retrying
		// spell.
		f.set(func(f *follower) {
			if len(payloads) == 0 {
				f.heartbeats++
			} else if resp.LSN > next {
				f.shipped += int64(len(payloads))
			}
			f.state = "streaming"
			f.acked = resp.LSN
			f.lastAck = time.Now()
		})
		next = resp.LSN
	}
}

// install seeds a follower the ring cannot serve: one raw-body POST of
// the source's snapshot to /replication/install, retried until the
// standby takes it, with a deadline of RequestTimeout per batchBytes of
// snapshot begun. It returns the LSN the standby answers — the
// installed state's, a real-history offset the ring resumes from — or
// ok=false when the loop should exit (cancelled or follower sealed).
func (p *Primary) install(ctx context.Context, f *follower) (uint64, bool) {
	f.set(func(f *follower) { f.state = "resync"; f.resyncs++ })
	snap, lsn := p.src.SnapshotBytes()
	p.opt.Logf("replica: installing a %d-byte snapshot at lsn %d on follower %s", len(snap), lsn, f.url)
	timeout := p.opt.RequestTimeout * time.Duration(1+(len(snap)-1)/batchBytes)
	var resp applyResponse
	if !p.retry(ctx, f, func() error {
		return httpx.PostBytes(ctx, p.client, f.url+"/replication/install", snap, &resp, timeout, 1<<20)
	}) {
		return 0, false
	}
	if resp.Sealed {
		p.sealFollower(f)
		return 0, false
	}
	f.set(func(f *follower) { f.state = "streaming"; f.acked = resp.LSN; f.lastAck = time.Now() })
	return resp.LSN, true
}

// sealFollower records that the standby was promoted and stops shipping
// to it.
func (p *Primary) sealFollower(f *follower) {
	f.set(func(f *follower) { f.state = "sealed" })
	p.opt.Logf("replica: follower %s sealed (promoted); stopping shipment", f.url)
}

// retry runs one round trip until it succeeds or ctx ends (httpx.Retry
// drives the loop; the per-attempt hook keeps the follower's retry
// accounting). A torn response read is an error like any other: the
// standby may have applied the batch but the ack was lost — the retry is
// safe because its overlap is duplicate-suppressed on the standby, and
// an install replaces the whole state. false only on cancellation.
func (p *Primary) retry(ctx context.Context, f *follower, roundTrip func() error) bool {
	return httpx.Retry(ctx, p.opt.Backoff, roundTrip,
		func(attempt int, d time.Duration, err error) {
			f.set(func(f *follower) { f.retries++; f.state = "retrying"; f.lastErr = err.Error() })
			p.opt.Logf("replica: ship to %s failed (retry %d in %v): %v", f.url, attempt, d, err)
		}) == nil
}
