// Package serve is the single-node server: an incremental NSLD matcher
// over HTTP/JSON — the sign-up-screening scenario as a service. It is
// what cmd/tsjserve runs, and what the cluster tests mount as their
// workers, so the wire contract (internal/distrib's request and
// response types) has one implementation. Every request body is JSON;
// matches reference the sequence number (id) the matched string
// received when it was added.
//
// Endpoints:
//
//	POST /add      {"name": "Barak Obama"}
//	               -> {"id": 17, "matches": [{"id": 3, "sld": 1, "nsld": 0.08}]}
//	POST /query    {"name": "Barak Obama"}        match without indexing
//	               -> {"matches": [...]}
//	POST /join     {"names": ["a", "b", ...]}     atomic batch add
//	               -> {"first": 18, "results": [{"id": 18, "matches": [...]}, ...]}
//	POST /delete   {"id": 3}                      tombstone a string
//	               -> {"deleted": 3}
//	POST /snapshot {"compact": true}              checkpoint the corpus (-data only)
//	               -> {"generation": 3, "strings": 1041}
//	GET  /stats    -> matcher funnel/wall counters, per-endpoint latency
//	                  quantiles and error/shed/panic counters, and (with
//	                  -data) corpus/WAL counters and replication state
//	GET  /healthz  -> ok        pure liveness: 200 while the process serves
//	GET  /readyz   -> ready     flips to 503 while the corpus is degraded
//	                  or the node is a standby that is syncing/out of contact
//	GET  /replication          -> role plus shipper/applier status
//	POST /replication/register   (replication protocol; standby -> primary)
//	POST /replication/apply      (replication protocol; primary -> standby)
//	POST /promote  {}            fail over: seal replication, flip writable
//	               -> {"role": "primary", "lsn": 1041}
//
// With -data DIR the index is durable: every add is appended to a
// CRC-framed write-ahead log under DIR before it becomes visible, POST
// /snapshot (or -snapshot-every) checkpoints the corpus, and a restart
// warm-loads the whole index from snapshot + WAL replay — same ids, same
// matches — instead of starting empty.
//
// Replication: a durable node is always a shipping-capable primary —
// standbys register via POST /replication/register and committed WAL
// records stream to them (far-behind followers get a full bootstrap).
// Started with -replica-of URL (plus -advertise URL and -data DIR), the
// node is instead a warm standby: it applies the primary's shipped
// stream through the same replay path a restart uses, serves /query
// (and all read endpoints) from the warm index, answers 503 on writes,
// and reports not-ready until it is registered and caught up. POST
// /promote fails the node over: the applier is sealed, the corpus
// fsynced, and the node becomes a writable primary that accepts
// follower registrations of its own.
//
// Degraded mode: a storage failure that seals the corpus write path (a
// failed WAL fsync cannot be retried soundly — the kernel may drop the
// dirty pages and report the next fsync clean) flips the server
// read-only. /query and /stats keep serving from memory, mutating
// endpoints return 503 with Retry-After, /readyz reports not-ready, and
// a background loop attempts recovery (a full generation rotation
// through fresh descriptors) with exponential backoff until the
// filesystem heals.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// (including Adds mid-WAL-append) drain, the background snapshot and
// recovery loops are joined, the replication shipper stops, and finally
// the worker pool is released and the corpus WAL flushed and closed.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tsjoin "repro"
	"repro/internal/backoff"
	"repro/internal/histo"
	"repro/internal/replica"
)

// Config is a node's configuration: one field per tsjserve flag that
// shapes the node (the listen address and HTTP timeouts go to Run).
type Config struct {
	// Matcher carries -threshold, -maxfreq, -shards, -greedy,
	// -exact-tokens and -nosimd.
	Matcher tsjoin.ConcurrentMatcherOptions
	// DataDir (-data) makes the index durable; empty is in-memory.
	DataDir string
	// Corpus carries -sync-every.
	Corpus tsjoin.CorpusOptions
	// SnapshotEvery (-snapshot-every) checkpoints the corpus on an
	// interval; 0 leaves it to POST /snapshot.
	SnapshotEvery time.Duration
	// MaxInflight (-max-inflight) is the load-shedding limit.
	MaxInflight int
	// ReplicaOf (-replica-of) starts the node as a warm standby of that
	// primary, shipped to at Advertise (-advertise).
	ReplicaOf string
	Advertise string
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

// Replication roles a node can be in. A durable node starts as a
// primary (shipping-capable, writable), a -replica-of node as a standby
// (read-only applier) until promoted; an in-memory node is "none".
const (
	roleNone    = "none"
	rolePrimary = "primary"
	roleStandby = "standby"
)

// Server wires a ConcurrentMatcher (and optionally its backing corpus)
// to the HTTP API.
type Server struct {
	// engMu guards the engine handles below. A standby's bootstrap
	// re-seed closes and replaces m and c mid-flight (resetEngine), so
	// every request that touches them runs under the read lock for its
	// whole duration (readLocked) and the swap takes the write lock —
	// the swap drains in-flight requests instead of closing the matcher
	// under them.
	engMu sync.RWMutex
	m     *tsjoin.ConcurrentMatcher
	// c is the persistent corpus backing m, nil when running in-memory.
	c *tsjoin.Corpus
	// lat holds one latency histogram per endpoint, keyed by the
	// endpoint name reported in /stats.
	lat map[string]*histo.Histogram
	ctr map[string]*endpointCounters
	// inflight is the load-shedding semaphore: a request that cannot
	// acquire a slot without blocking is rejected with 503 rather than
	// queued — queueing under overload only converts overload into
	// latency and memory growth.
	inflight chan struct{}

	// role is the replication role (roleNone/rolePrimary/roleStandby);
	// promotion flips it standby -> primary while serving.
	role atomic.Value
	// primMu guards prim, which a promotion creates while serving.
	primMu sync.Mutex
	prim   *replica.Primary
	// stby is non-nil for the life of a node started with -replica-of
	// (it stays, sealed, after promotion — its counters remain visible).
	stby *replica.Standby
	// dataDir plus the open options let resetEngine rebuild the engine
	// from a wiped directory when the primary orders a bootstrap.
	dataDir string
	mopts   tsjoin.ConcurrentMatcherOptions
	copts   tsjoin.CorpusOptions
	// snapshotEvery is the periodic-checkpoint interval (0 = off).
	snapshotEvery time.Duration
}

// New opens a node: with a DataDir it warm-loads the corpus (snapshot +
// WAL replay) and becomes a shipping-capable primary, or, with
// ReplicaOf, a warm standby; without one it serves an in-memory index.
func New(cfg Config) (*Server, error) {
	if cfg.ReplicaOf != "" {
		if cfg.DataDir == "" {
			return nil, errors.New("-replica-of requires -data: a standby replicates into a durable corpus")
		}
		if cfg.Advertise == "" {
			return nil, errors.New("-replica-of requires -advertise: the primary ships to that URL")
		}
	}
	var (
		m   *tsjoin.ConcurrentMatcher
		c   *tsjoin.Corpus
		err error
	)
	if cfg.DataDir != "" {
		c, err = tsjoin.OpenCorpus(cfg.DataDir, cfg.Corpus)
		if err != nil {
			return nil, err
		}
		cs := c.Stats()
		start := time.Now()
		m, err = tsjoin.NewConcurrentMatcherFromCorpus(c, cfg.Matcher)
		if err != nil {
			c.Close()
			return nil, err
		}
		log.Printf("warm restart from %s: %d strings (%d live, generation %d, %d WAL records replayed) in %v",
			cfg.DataDir, cs.Strings, cs.Live, cs.Generation, cs.WALReplayed, time.Since(start).Round(time.Millisecond))
	} else if m, err = tsjoin.NewConcurrentMatcher(cfg.Matcher); err != nil {
		return nil, err
	}

	s := newServer(m, c, cfg.MaxInflight)
	s.dataDir = cfg.DataDir
	s.mopts = cfg.Matcher
	s.copts = cfg.Corpus
	s.snapshotEvery = cfg.SnapshotEvery
	if cfg.ReplicaOf != "" {
		s.role.Store(roleStandby)
		s.stby = replica.NewStandby(serverEngine{s}, s.resetEngine, replica.StandbyOptions{
			Primary:   cfg.ReplicaOf,
			Advertise: cfg.Advertise,
			StateDir:  cfg.DataDir,
			Logf:      log.Printf,
		})
		log.Printf("standby: replicating from %s, advertising %s (read-only until POST /promote)", cfg.ReplicaOf, cfg.Advertise)
	} else if c != nil {
		s.prim = replica.NewPrimary(c, replica.PrimaryOptions{Logf: log.Printf})
	}
	return s, nil
}

func newServer(m *tsjoin.ConcurrentMatcher, c *tsjoin.Corpus, maxInflight int) *Server {
	if maxInflight <= 0 {
		maxInflight = 256
	}
	lat := make(map[string]*histo.Histogram)
	ctr := make(map[string]*endpointCounters)
	for _, name := range endpointNames {
		lat[name] = &histo.Histogram{}
		ctr[name] = &endpointCounters{}
	}
	s := &Server{m: m, c: c, lat: lat, ctr: ctr, inflight: make(chan struct{}, maxInflight)}
	if c != nil {
		s.role.Store(rolePrimary)
	} else {
		s.role.Store(roleNone)
	}
	return s
}

// Run serves the node on addr until SIGINT/SIGTERM (ListenAndServe,
// with the snapshot, recovery and standby-registration loops), then
// closes it.
func (s *Server) Run(addr string, writeTimeout, idleTimeout time.Duration) error {
	defer s.Close()
	var loops []func(context.Context)
	// The loops touch the corpus, so they must be joined before it
	// closes; they re-read the corpus handle every tick because a
	// standby bootstrap swaps it.
	if s.c != nil && s.snapshotEvery > 0 {
		loops = append(loops, func(ctx context.Context) { runPeriodicSnapshots(ctx, s, s.snapshotEvery) })
	}
	if s.c != nil {
		loops = append(loops, func(ctx context.Context) { runRecovery(ctx, s, time.Second) })
	}
	if s.stby != nil {
		// The standby registration watchdog: registers with the primary
		// and re-registers whenever heartbeats stop. Exits on its own
		// once the standby is sealed by promotion.
		loops = append(loops, s.stby.Run)
	}
	log.Printf("listening on %s (threshold=%g shards=%d durable=%v simd=%v)",
		addr, s.mopts.Threshold, s.m.Shards(), s.c != nil, tsjoin.SIMDAvailable() && !s.mopts.DisableSIMD)
	return ListenAndServe(addr, s.Handler(), writeTimeout, idleTimeout, loops...)
}

// ListenAndServe is the one serving lifecycle, for a node and for a
// coordinator alike: serve h on addr until SIGINT/SIGTERM or a listener
// failure, with each loop running under the same signal context; then
// drain in-flight requests (up to 10 s) and join the loops. When it
// returns nothing is still using what h and the loops share, so the
// caller may close it.
func ListenAndServe(addr string, h http.Handler, writeTimeout, idleTimeout time.Duration, loops ...func(context.Context)) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var bg sync.WaitGroup
	for _, loop := range loops {
		bg.Add(1)
		go func() {
			defer bg.Done()
			loop(ctx)
		}()
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	var serveErr error
	select {
	case serveErr = <-errc:
		// Listener failed: still stop and join the loops so the caller's
		// close sequence runs against quiesced state.
	case <-ctx.Done():
		log.Print("shutting down")
		// Drain in-flight requests — this is what guarantees no Add is
		// mid-WAL-append when the corpus closes.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
		cancel()
	}
	stop()
	bg.Wait()
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}

// Close stops the replication shipper, then releases the matcher and
// flushes and closes the corpus. Call it once nothing serves from s.
func (s *Server) Close() {
	if p := s.shipper(); p != nil {
		// Stop the ship loops before the corpus closes under them.
		p.Close()
	}
	s.closeEngine()
}

// degraded reports the backing corpus's degraded state (nil when
// in-memory or healthy). Callers hold the engine read lock (readLocked).
func (s *Server) degraded() error { return s.m.Degraded() }

func (s *Server) roleName() string {
	r, _ := s.role.Load().(string)
	return r
}

// shipper returns the primary-side replication shipper, nil on a
// standby (until promoted) or an in-memory node.
func (s *Server) shipper() *replica.Primary {
	s.primMu.Lock()
	defer s.primMu.Unlock()
	return s.prim
}

// corpusHandle reads the current corpus under the engine lock; the
// background loops re-read it every tick because a standby bootstrap
// swaps it.
func (s *Server) corpusHandle() *tsjoin.Corpus {
	s.engMu.RLock()
	defer s.engMu.RUnlock()
	return s.c
}

// serverEngine adapts the serving matcher+corpus to the replication
// Applier: replicated records install through the same mutation path a
// WAL replay uses, so the standby's matcher answers queries over
// exactly the primary's acknowledged history. Its methods are called
// only under the Standby's own lock, which also serializes them with
// resetEngine's handle swap.
type serverEngine struct{ s *Server }

func (e serverEngine) LSN() uint64 {
	if e.s.m == nil {
		return 0
	}
	return e.s.m.LSN()
}

func (e serverEngine) Apply(payload []byte) error {
	if e.s.m == nil {
		return errors.New("engine is resetting")
	}
	return e.s.m.ApplyShipped(payload)
}

func (e serverEngine) Seal() error {
	if e.s.c == nil {
		return errors.New("engine is resetting")
	}
	return e.s.c.Sync()
}

// resetEngine is the standby's bootstrap wipe: close the serving
// handles, clear the data directory, and reopen an empty engine for the
// primary to stream the full state into. Taking the engine write lock
// drains every in-flight read first; while the swap is in progress (or
// after a failed one) the handles are nil and readLocked answers 503.
func (s *Server) resetEngine() (replica.Applier, error) {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if s.m != nil {
		s.m.Close()
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil {
			log.Printf("replica reset: closing old corpus: %v", err)
		}
	}
	s.m, s.c = nil, nil
	if err := os.RemoveAll(s.dataDir); err != nil {
		return nil, fmt.Errorf("replica reset: wiping %s: %w", s.dataDir, err)
	}
	if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return nil, err
	}
	c, err := tsjoin.OpenCorpus(s.dataDir, s.copts)
	if err != nil {
		return nil, fmt.Errorf("replica reset: reopening corpus: %w", err)
	}
	m, err := tsjoin.NewConcurrentMatcherFromCorpus(c, s.mopts)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("replica reset: rebuilding matcher: %w", err)
	}
	s.m, s.c = m, c
	return serverEngine{s}, nil
}

// closeEngine shuts the current handles down at process exit; it reads
// them under the write lock because a standby may have swapped them
// since startup.
func (s *Server) closeEngine() {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	if s.m != nil {
		s.m.Close()
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil {
			log.Printf("corpus close: %v", err)
		} else {
			log.Print("corpus WAL flushed and closed")
		}
	}
	s.m, s.c = nil, nil
}

// runPeriodicSnapshots checkpoints the corpus on an interval, skipping
// when nothing mutated since the last checkpoint and while the corpus
// is degraded (the recovery loop owns the heal — checkpointing against
// a failing disk would just spin it). Consecutive failures back the
// interval off exponentially (backoff.Policy capped at 64x) so a
// persistently sick filesystem isn't hammered; one success resets the
// cadence. A standby skips checkpointing until promoted: its corpus is
// wiped and re-seeded at the primary's discretion.
func runPeriodicSnapshots(ctx context.Context, s *Server, every time.Duration) {
	pol := backoff.Policy{Base: every, Cap: every << 6}
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(pol.Delay(fails)):
		}
		c := s.corpusHandle()
		if c == nil || s.roleName() == roleStandby {
			continue
		}
		if c.Degraded() != nil || !c.Stats().Dirty {
			continue
		}
		if err := c.Compact(); err != nil {
			fails++
			log.Printf("periodic snapshot: %v (next attempt in %v)", err, pol.Delay(fails))
		} else {
			fails = 0
			log.Printf("periodic snapshot: generation %d", c.Stats().Generation)
		}
	}
}

// runRecovery heals a degraded corpus: while the write path is sealed
// it periodically attempts a full generation rotation through fresh
// descriptors (Corpus.Recover), backing off exponentially (backoff.
// Policy capped at 16x base) while the filesystem keeps failing. While
// healthy it idles at the base interval, which costs one read-locked
// nil check. It runs on standbys too — a degraded standby corpus heals
// the same way, and must be healthy before promotion can seal it.
func runRecovery(ctx context.Context, s *Server, base time.Duration) {
	pol := backoff.Policy{Base: base, Cap: 16 * base}
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(pol.Delay(fails)):
		}
		c := s.corpusHandle()
		if c == nil || c.Degraded() == nil {
			fails = 0
			continue
		}
		if err := c.Recover(); err != nil {
			fails++
			log.Printf("degraded: recovery failed: %v (next attempt in %v)", err, pol.Delay(fails))
		} else {
			fails = 0
			log.Printf("recovered: write path restored at generation %d", c.Stats().Generation)
		}
	}
}
