package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/httpx"
)

// ErrSyncing rejects promotion of a standby mid-bootstrap: its state is
// a partial wipe-and-reseed, not any prefix of the primary's history.
var ErrSyncing = errors.New("replica: standby is mid-resync and cannot be promoted")

// StandbyOptions configures the applier side.
type StandbyOptions struct {
	// Primary is the primary's base URL; Advertise is this node's base
	// URL as the primary should dial it. Both required.
	Primary   string
	Advertise string
	// RegisterInterval is the watchdog period: when no primary contact
	// (apply or heartbeat) lands for this long, the standby re-registers
	// (default 3× the primary's default heartbeat).
	RegisterInterval time.Duration
	// StateDir, when set, persists the mid-resync state as a RESYNC
	// marker file there (normally the data directory): a standby that
	// crashes while a bootstrap is streaming in replays a PARTIAL
	// bootstrap from disk, whose LSN indexes the bootstrap stream, not
	// the primary's real history. The marker makes the restarted
	// standby report Syncing at registration so the primary re-seeds it
	// instead of misreading that LSN against the ship ring. Empty skips
	// the marker (a crash-free in-memory standby doesn't need it).
	StateDir string
	// RequestTimeout bounds one register round trip (default 10s).
	RequestTimeout time.Duration
	// Backoff paces register retries. Zero Base means the default
	// {250ms base, 15s cap, 0.25 jitter}.
	Backoff backoff.Policy
	// Client overrides the HTTP client (tests inject fault transports).
	Client *http.Client
	// Logf receives replication events; nil discards.
	Logf func(format string, args ...any)
}

func (o *StandbyOptions) fill() {
	if o.RegisterInterval <= 0 {
		o.RegisterInterval = 3 * defaultHeartbeat
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

// Standby receives the shipped stream into an Applier, gap-checks every
// batch against the engine's own LSN, re-registers with the primary
// when heartbeats stop, and seals at Promote. Safe for concurrent use;
// applies are serialized.
type Standby struct {
	opt    StandbyOptions
	client *http.Client
	// reset wipes the engine for a bootstrap and returns the fresh one
	// (the caller swaps its serving handles inside this function).
	reset func() (Applier, error)

	mu          sync.Mutex
	eng         Applier
	sealed      bool
	syncing     bool
	syncTarget  uint64
	registered  bool
	lastContact time.Time
	applied     int64
	resyncs     int64
	heartbeats  int64
	gapRejects  int64
	regFails    int64
	lastErr     string
}

// StandbyStatus is the standby's externally visible state.
type StandbyStatus struct {
	Primary   string `json:"primary"`
	Advertise string `json:"advertise"`
	LSN       uint64 `json:"lsn"`
	// Registered reports a successful register or primary contact;
	// Syncing a bootstrap in flight; Sealed a completed promotion.
	Registered bool `json:"registered"`
	Syncing    bool `json:"syncing"`
	Sealed     bool `json:"sealed"`
	// SyncTarget is the bootstrap's end LSN while Syncing.
	SyncTarget uint64 `json:"sync_target,omitempty"`
	// LastContactAgoMs is milliseconds since the primary last reached
	// us (-1 for never).
	LastContactAgoMs int64 `json:"last_contact_ago_ms"`
	// AppliedRecords counts replicated records installed; Resyncs
	// bootstrap wipes; Heartbeats idle pings; GapRejects batches
	// rejected for starting beyond our LSN; RegisterFails failed
	// registration attempts.
	AppliedRecords int64  `json:"applied_records"`
	Resyncs        int64  `json:"resyncs"`
	Heartbeats     int64  `json:"heartbeats"`
	GapRejects     int64  `json:"gap_rejects"`
	RegisterFails  int64  `json:"register_fails"`
	LastError      string `json:"last_error,omitempty"`
}

// NewStandby wraps an engine. reset is called (under the standby lock)
// when the primary orders a bootstrap: it must wipe the engine's
// storage, swap the caller's serving handles to a fresh empty engine,
// and return it.
func NewStandby(eng Applier, reset func() (Applier, error), opt StandbyOptions) *Standby {
	opt.fill()
	client := opt.Client
	if client == nil {
		client = httpx.NewClient(connectTimeout)
	}
	s := &Standby{opt: opt, client: client, reset: reset, eng: eng}
	if opt.StateDir != "" {
		if _, err := os.Stat(s.markerPath()); err == nil {
			// A previous process died mid-bootstrap: the engine replayed
			// a partial re-seed whose LSN is bootstrap-space. Stay in
			// syncing (with an unreachable target) until the primary
			// re-seeds us properly.
			s.syncing = true
			s.syncTarget = ^uint64(0)
			s.opt.Logf("replica: RESYNC marker found; engine state is a partial bootstrap, awaiting re-seed")
		}
	}
	return s
}

func (s *Standby) markerPath() string { return filepath.Join(s.opt.StateDir, "RESYNC") }

// writeMarker durably flags the on-disk state as a partial bootstrap.
func (s *Standby) writeMarker() error {
	if s.opt.StateDir == "" {
		return nil
	}
	return os.WriteFile(s.markerPath(), []byte("mid-resync\n"), 0o644)
}

// clearMarker un-flags it once the bootstrap reaches its target. A
// failed remove leaves the marker: the worst case is a redundant
// re-seed after the next restart, never a misread offset.
func (s *Standby) clearMarker() {
	if s.opt.StateDir == "" {
		return
	}
	if err := os.Remove(s.markerPath()); err != nil && !os.IsNotExist(err) {
		s.opt.Logf("replica: clearing RESYNC marker: %v", err)
	}
}

// Run is the registration watchdog: it registers with the primary, then
// re-registers whenever contact goes quiet (a restarted primary has no
// memory of its followers — re-registering is how the pair finds each
// other again). Blocks until ctx ends or the standby is sealed.
func (s *Standby) Run(ctx context.Context) {
	bo := backoff.State{P: s.opt.Backoff}
	for ctx.Err() == nil {
		s.mu.Lock()
		sealed := s.sealed
		stale := !s.registered || time.Since(s.lastContact) > s.opt.RegisterInterval
		s.mu.Unlock()
		if sealed {
			return
		}
		wait := s.opt.RegisterInterval / 4
		if wait <= 0 {
			wait = time.Millisecond
		}
		if stale {
			if err := s.register(ctx); err != nil {
				s.mu.Lock()
				s.registered = false
				s.regFails++
				s.lastErr = err.Error()
				s.mu.Unlock()
				wait = bo.Next()
				s.opt.Logf("replica: register with %s failed (retry in %v): %v", s.opt.Primary, wait, err)
			} else {
				bo.Reset()
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// register performs one registration round trip.
func (s *Standby) register(ctx context.Context) error {
	s.mu.Lock()
	hello := registerRequest{Advertise: s.opt.Advertise, LSN: s.eng.LSN(), Syncing: s.syncing}
	s.mu.Unlock()
	var rr registerResponse
	if err := httpx.PostJSON(ctx, s.client, s.opt.Primary+"/replication/register", hello, &rr, s.opt.RequestTimeout, 1<<16); err != nil {
		return fmt.Errorf("replica: register with %s: %w", s.opt.Primary, err)
	}
	if !rr.OK {
		return fmt.Errorf("replica: register with %s: primary answered ok=false", s.opt.Primary)
	}
	s.mu.Lock()
	s.registered = true
	s.lastContact = time.Now()
	s.lastErr = ""
	s.mu.Unlock()
	s.opt.Logf("replica: registered with %s (primary at lsn %d, standby at %d)", s.opt.Primary, rr.LSN, s.LSN())
	return nil
}

// ServeApply is the HTTP handler for POST /replication/apply: the
// shipped-batch ingest point, including heartbeats and bootstrap
// chunks. Batches are gap-checked against the engine's LSN; the
// already-applied overlap of a retried batch is skipped (see the
// package comment), the rest is committed up to its first bad frame in
// one Apply, and the response always carries the authoritative LSN the
// primary must resume from.
func (s *Standby) ServeApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req applyRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxApplyBody)).Decode(&req); err != nil {
		http.Error(w, "bad apply request", http.StatusBadRequest)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastContact = time.Now()
	s.registered = true
	if s.sealed {
		httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: s.eng.LSN(), Sealed: true})
		return
	}
	switch {
	case req.Resync:
		eng, err := s.reset()
		if err != nil {
			s.lastErr = err.Error()
			httpx.WriteJSONStatus(w, http.StatusInternalServerError, applyResponse{LSN: s.eng.LSN(), Syncing: s.syncing, Error: err.Error()})
			return
		}
		s.eng = eng
		s.syncing = true
		s.syncTarget = req.SyncTo
		s.resyncs++
		if err := s.writeMarker(); err != nil {
			// The wipe happened but the marker didn't land; stay syncing
			// and fail the chunk so the primary's retry re-orders the
			// resync (re-wipe and marker retry).
			s.lastErr = err.Error()
			httpx.WriteJSONStatus(w, http.StatusInternalServerError, applyResponse{LSN: s.eng.LSN(), Syncing: true, Error: err.Error()})
			return
		}
		s.opt.Logf("replica: resync ordered by primary (target lsn %d)", req.SyncTo)
	case s.syncing && req.SyncTo == 0 && len(req.Frames) > 0:
		// Mid-bootstrap, a real-history batch (no SyncTo): our LSN is a
		// bootstrap-space offset; applying ring records at it would
		// interleave the two histories. Refuse and report Syncing so
		// the shipper re-seeds instead.
		s.gapRejects++
		httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: s.eng.LSN(), Syncing: true})
		return
	case !s.syncing && req.SyncTo != 0:
		// A stale bootstrap chunk from a superseded resync: our LSN is
		// real-space now. Refuse; the shipper re-classifies.
		s.gapRejects++
		httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: s.eng.LSN()})
		return
	}
	lsn := s.eng.LSN()
	if req.From > lsn {
		// Gap: records between our LSN and the batch are missing. Reject
		// and report where we actually are.
		s.gapRejects++
		httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: lsn, Syncing: s.syncing})
		return
	}
	// Past the duplicate prefix of a retried batch, commit the CRC-valid
	// run in one Apply.
	var payloads [][]byte
	var bad error
	for _, fr := range req.Frames[min(lsn-req.From, uint64(len(req.Frames))):] {
		if crc32.Checksum(fr.Payload, castagnoli) != fr.CRC {
			bad = errors.New("frame crc mismatch")
			break
		}
		payloads = append(payloads, fr.Payload)
	}
	if len(payloads) > 0 {
		if err := s.eng.Apply(payloads); err != nil {
			bad = err
		}
		s.applied += int64(s.eng.LSN() - lsn)
	}
	if bad != nil {
		// A partial apply is fine: the applied prefix advanced our LSN,
		// and the primary resumes from it after the error.
		s.lastErr = bad.Error()
		httpx.WriteJSONStatus(w, http.StatusInternalServerError, applyResponse{LSN: s.eng.LSN(), Syncing: s.syncing, Error: bad.Error()})
		return
	}
	if len(req.Frames) == 0 && !req.Resync {
		s.heartbeats++
	}
	if s.syncing && s.eng.LSN() >= s.syncTarget {
		s.syncing = false
		s.clearMarker()
		s.opt.Logf("replica: resync complete at lsn %d", s.eng.LSN())
	}
	httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: s.eng.LSN(), Syncing: s.syncing})
}

// Promote seals the standby: replication traffic is rejected from here
// on (old primaries shipping to us are told to stop), the engine is
// fsynced, and the caller may flip the node to writable primary. It is
// an error while a bootstrap is in flight (ErrSyncing) and fails —
// leaving the standby unsealed and retryable — if the engine cannot be
// flushed (e.g. a degraded corpus).
func (s *Standby) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	if s.syncing {
		return ErrSyncing
	}
	if err := s.eng.Seal(); err != nil {
		return fmt.Errorf("replica: sealing engine at promote: %w", err)
	}
	s.sealed = true
	s.opt.Logf("replica: promoted at lsn %d", s.eng.LSN())
	return nil
}

// Sealed reports whether Promote completed.
func (s *Standby) Sealed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed
}

// LSN returns the engine's committed offset.
func (s *Standby) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.LSN()
}

// Ready reports whether the standby is a serving replica in good
// standing: registered, not mid-bootstrap, not sealed, and in recent
// contact with the primary (within 2× the register interval).
func (s *Standby) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.sealed && !s.syncing && s.registered &&
		!s.lastContact.IsZero() && time.Since(s.lastContact) <= 2*s.opt.RegisterInterval
}

// Status snapshots the standby.
func (s *Standby) Status() StandbyStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	ago := int64(-1)
	if !s.lastContact.IsZero() {
		ago = time.Since(s.lastContact).Milliseconds()
	}
	st := StandbyStatus{
		Primary:          s.opt.Primary,
		Advertise:        s.opt.Advertise,
		LSN:              s.eng.LSN(),
		Registered:       s.registered,
		Syncing:          s.syncing,
		Sealed:           s.sealed,
		LastContactAgoMs: ago,
		AppliedRecords:   s.applied,
		Resyncs:          s.resyncs,
		Heartbeats:       s.heartbeats,
		GapRejects:       s.gapRejects,
		RegisterFails:    s.regFails,
		LastError:        s.lastErr,
	}
	if s.syncing {
		st.SyncTarget = s.syncTarget
	}
	return st
}
