package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/corpus"
	"repro/internal/httpx"
)

// ErrSyncing rejects promotion of a standby while a snapshot install is
// in flight: the state promotion would seal is about to be replaced.
var ErrSyncing = errors.New("replica: standby is installing a snapshot and cannot be promoted")

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
	// RequestTimeout bounds one register round trip, and each read of an
	// install body (default 10s).
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
// batch against the engine's own LSN, installs the primary's snapshot
// when ordered to, re-registers with the primary when heartbeats stop,
// and seals at Promote. Safe for concurrent use; applies and engine swaps
// are serialized.
type Standby struct {
	opt    StandbyOptions
	client *http.Client
	// install replaces the engine with one opened from a primary's
	// snapshot (the caller swaps its serving handles inside this
	// function) and returns it.
	install func(snapshot []byte) (Applier, error)
	// installing counts installs in flight, from the request's arrival to
	// its engine swap. It is read without mu so readiness and promotion
	// answer at once while an install holds mu for its swap.
	installing atomic.Int32

	mu          sync.Mutex
	eng         Applier
	sealed      bool
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
	// Syncing a snapshot install in flight; Sealed a completed promotion.
	Registered bool `json:"registered"`
	Syncing    bool `json:"syncing"`
	Sealed     bool `json:"sealed"`
	// LastContactAgoMs is milliseconds since the primary last reached
	// us (-1 for never).
	LastContactAgoMs int64 `json:"last_contact_ago_ms"`
	// AppliedRecords counts replicated records applied; Resyncs snapshot
	// installs; Heartbeats idle pings; GapRejects batches rejected for
	// starting beyond our LSN; RegisterFails failed registration
	// attempts.
	AppliedRecords int64  `json:"applied_records"`
	Resyncs        int64  `json:"resyncs"`
	Heartbeats     int64  `json:"heartbeats"`
	GapRejects     int64  `json:"gap_rejects"`
	RegisterFails  int64  `json:"register_fails"`
	LastError      string `json:"last_error,omitempty"`
}

// NewStandby wraps an engine. install is called, under the standby lock,
// with a primary's snapshot that corpus.CheckSnapshot accepted: it must
// close the engine, install the snapshot into its storage, swap the
// caller's serving handles to an engine opened from it, and return that
// engine.
func NewStandby(eng Applier, install func(snapshot []byte) (Applier, error), opt StandbyOptions) *Standby {
	opt.fill()
	client := opt.Client
	if client == nil {
		client = httpx.NewClient(connectTimeout)
	}
	return &Standby{opt: opt, client: client, install: install, eng: eng}
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
		// An install in flight is contact: its body may take longer than
		// the interval to arrive, and re-registering would cancel it.
		stale := !s.registered || time.Since(s.lastContact) > s.opt.RegisterInterval && s.installing.Load() == 0
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
	hello := registerRequest{Advertise: s.opt.Advertise, LSN: s.eng.LSN()}
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
// shipped-batch ingest point, including heartbeats. Batches are
// gap-checked against the engine's LSN; the already-applied overlap of a
// retried batch is skipped (see the package comment), the rest is
// committed up to its first bad frame in one Apply, and the response
// always carries the authoritative LSN the primary must resume from.
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
	lsn := s.eng.LSN()
	if req.From > lsn {
		// Gap: records between our LSN and the batch are missing. Reject
		// and report where we actually are.
		s.gapRejects++
		httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: lsn})
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
		httpx.WriteJSONStatus(w, http.StatusInternalServerError, applyResponse{LSN: s.eng.LSN(), Error: bad.Error()})
		return
	}
	if len(req.Frames) == 0 {
		s.heartbeats++
	}
	httpx.WriteJSONStatus(w, http.StatusOK, applyResponse{LSN: s.eng.LSN()})
}

// ServeInstall is the HTTP handler for POST /replication/install: the
// body is a primary's snapshot (corpus.SnapshotBytes). The body is read
// (each read bounded by RequestTimeout) and checked without the standby
// lock; a body corpus.CheckSnapshot
// refuses is answered 400 and touches nothing. The lock is taken only to
// swap the engine for one installed from the body, which a sealed
// standby refuses. Either way the response carries the engine's LSN.
func (s *Standby) ServeInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.installing.Add(1)
	defer s.installing.Add(-1)
	body := idleReader{http.MaxBytesReader(w, r.Body, maxInstallBody), http.NewResponseController(w), s.opt.RequestTimeout}
	snap, err := io.ReadAll(body)
	if err == nil {
		_, err = corpus.CheckSnapshot(snap)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastContact, s.registered = time.Now(), true
	resp, code := applyResponse{Sealed: s.sealed}, http.StatusOK
	switch {
	case s.sealed:
	case err != nil:
		code = http.StatusBadRequest
	default:
		var eng Applier
		if eng, err = s.install(snap); err != nil {
			code = http.StatusInternalServerError
			break
		}
		s.eng = eng
		s.resyncs++
		s.opt.Logf("replica: installed the primary's snapshot at lsn %d", s.eng.LSN())
	}
	resp.LSN = s.eng.LSN()
	if code != http.StatusOK {
		s.lastErr = "install: " + err.Error()
		resp.Error = s.lastErr
	}
	httpx.WriteJSONStatus(w, code, resp)
}

// idleReader bounds each read of a request body to timeout from its
// start: a sender that stalls mid-body fails the read, rather than
// holding the install in flight (and the standby unpromotable) for as
// long as TCP keeps the dead connection. A writer without deadline
// support (a test recorder) reads unbounded.
type idleReader struct {
	r       io.Reader
	rc      *http.ResponseController
	timeout time.Duration
}

func (ir idleReader) Read(p []byte) (int, error) {
	_ = ir.rc.SetReadDeadline(time.Now().Add(ir.timeout)) // ErrNotSupported: read unbounded
	return ir.r.Read(p)
}

// Promote seals the standby: replication traffic is rejected from here
// on (old primaries shipping to us are told to stop), the engine is
// fsynced, and the caller may flip the node to writable primary. It is
// an error while an install is in flight (ErrSyncing) and fails —
// leaving the standby unsealed and retryable — if the engine cannot be
// flushed (e.g. a degraded corpus).
func (s *Standby) Promote() error {
	if s.installing.Load() > 0 {
		return ErrSyncing
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
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
// standing: registered, not installing, not sealed, and in recent
// contact with the primary (within 2× the register interval).
func (s *Standby) Ready() bool {
	if s.installing.Load() > 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.sealed && s.registered &&
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
	return StandbyStatus{
		Primary:          s.opt.Primary,
		Advertise:        s.opt.Advertise,
		LSN:              s.eng.LSN(),
		Registered:       s.registered,
		Syncing:          s.installing.Load() > 0,
		Sealed:           s.sealed,
		LastContactAgoMs: ago,
		AppliedRecords:   s.applied,
		Resyncs:          s.resyncs,
		Heartbeats:       s.heartbeats,
		GapRejects:       s.gapRejects,
		RegisterFails:    s.regFails,
		LastError:        s.lastErr,
	}
}
