// Package serve is tsjserve's one serving front: an incremental NSLD
// matcher over HTTP/JSON — the sign-up-screening scenario as a service —
// answered by a node (Server, over its own matcher) or by a cluster
// coordinator (CoordinatorHandler, over an internal/distrib.Coordinator).
// Both roles serve /add, /query, /join and /delete through the same
// handlers and the same error-to-status mapping (writeError), under the
// same request lifecycle: -max-inflight load shedding (503 +
// Retry-After), panic-to-500 recovery, and per-endpoint latency
// histograms and error/shed/panic counters, reported as the latency and
// endpoints sections of either role's /stats; ListenAndServe is their
// shared signal → drain → close sequence. The cluster tests mount the
// node as their workers, so the wire contract (internal/distrib's
// request and response types) has one implementation. Every request
// body is JSON; matches reference the sequence number (id) the matched
// string received when it was added.
//
// A node's endpoints (a coordinator serves the first four, /stats,
// /healthz and /readyz, plus GET /cluster and its own POST
// /cluster/selfjoin; see internal/distrib):
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
//	                  or the node is a standby that is installing a
//	                  snapshot or out of contact
//	GET  /replication          -> role plus shipper/applier status
//	POST /replication/register   (replication protocol; standby -> primary)
//	POST /replication/apply      (replication protocol; primary -> standby)
//	POST /replication/install    (replication protocol; primary -> standby)
//	POST /promote  {}            fail over: seal replication, flip writable
//	               -> {"role": "primary", "lsn": 1041}
//	GET  /cluster/strings        (distributed join executor; coordinator -> node,
//	POST /cluster/probe           -data only)
//	POST /cluster/selfjoin
//
// With -data DIR the index is durable: every add is appended to a
// CRC-framed write-ahead log under DIR before it becomes visible, POST
// /snapshot (or -snapshot-every) checkpoints the corpus, and a restart
// warm-loads the whole index from snapshot + WAL replay — same ids, same
// matches — instead of starting empty.
//
// Replication: a durable node is always a shipping-capable primary —
// standbys register via POST /replication/register and committed WAL
// records stream to them; a follower the ship ring cannot serve is sent
// the primary's snapshot instead, which it installs into its data
// directory and reopens exactly as a restart would. Started with
// -replica-of URL (plus -advertise URL and -data DIR), the node is
// instead a warm standby: it commits each shipped batch through the
// corpus commit path the primary's writes take, serves /query (and all
// read endpoints) from the warm index, answers 503 on writes, and
// reports not-ready until it is registered and caught up. POST /promote
// fails the node over: the applier is sealed, the corpus fsynced, and
// the node becomes a writable primary that accepts follower
// registrations of its own. A primary and its standbys must run the
// same build: the replication wire format is not versioned.
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
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	tsjoin "repro"
	"repro/internal/backoff"
	"repro/internal/corpus"
	"repro/internal/replica"
)

// Config is a node's configuration: one field per tsjserve flag that
// shapes the node (the listen address and HTTP timeouts go to Run).
type Config struct {
	// Matcher carries -threshold, -maxfreq, -shards, -greedy and
	// -exact-tokens.
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
	// engMu guards the engine handles below. A standby's snapshot
	// install closes and replaces m and c mid-flight (installEngine), so
	// every request that touches them runs under the read lock for its
	// whole duration (readLocked) and the swap takes the write lock —
	// the swap drains in-flight requests instead of closing the matcher
	// under them.
	engMu sync.RWMutex
	m     *tsjoin.ConcurrentMatcher
	// c is the persistent corpus backing m, nil when running in-memory.
	c *tsjoin.Corpus
	// front is the request lifecycle: the contract's endpoints plus
	// /snapshot are instrumented.
	*front

	// role is the replication role (roleNone/rolePrimary/roleStandby);
	// promotion flips it standby -> primary while serving.
	role atomic.Value
	// primMu guards prim, which a promotion creates while serving.
	primMu sync.Mutex
	prim   *replica.Primary
	// stby is non-nil for the life of a node started with -replica-of
	// (it stays, sealed, after promotion — its counters remain visible).
	stby *replica.Standby
	// dataDir plus the open options let installEngine reopen the engine
	// from the directory a primary's snapshot was installed into.
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
		// A RESYNC file is the mid-bootstrap marker of builds that seeded
		// a standby as a stream of records: the directory holds part of
		// such a stream, whose LSN is no offset into the primary's history.
		if _, err := os.Stat(filepath.Join(cfg.DataDir, "RESYNC")); err == nil {
			return nil, fmt.Errorf("%s was left mid-bootstrap by an older build (it holds a RESYNC file): its state is not a prefix of the primary's history; delete the directory and start the standby again to re-seed it", cfg.DataDir)
		}
		start := time.Now()
		if m, c, err = openEngine(cfg.DataDir, cfg.Corpus, cfg.Matcher); err != nil {
			return nil, err
		}
		cs := c.Stats()
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
		s.stby = replica.NewStandby(serverEngine{s}, s.installEngine, replica.StandbyOptions{
			Primary:   cfg.ReplicaOf,
			Advertise: cfg.Advertise,
			Logf:      log.Printf,
		})
		log.Printf("standby: replicating from %s, advertising %s (read-only until POST /promote)", cfg.ReplicaOf, cfg.Advertise)
	} else if c != nil {
		s.prim = replica.NewPrimary(c, replica.PrimaryOptions{Logf: log.Printf})
	}
	return s, nil
}

func newServer(m *tsjoin.ConcurrentMatcher, c *tsjoin.Corpus, maxInflight int) *Server {
	s := &Server{m: m, c: c, front: newFront(maxInflight)}
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
	// standby's snapshot install swaps it.
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
	log.Printf("listening on %s (threshold=%g shards=%d durable=%v)",
		addr, s.mopts.Threshold, s.m.Shards(), s.c != nil)
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
// background loops re-read it every tick because a standby's snapshot
// install swaps it.
func (s *Server) corpusHandle() *tsjoin.Corpus {
	s.engMu.RLock()
	defer s.engMu.RUnlock()
	return s.c
}

// serverEngine adapts the serving matcher+corpus to the replication
// Applier: a shipped batch commits through the same corpus path the
// primary's writes take, as one commit, so the standby's matcher answers
// queries over exactly the primary's acknowledged history. Its methods are called
// only under the Standby's own lock, which also serializes them with
// installEngine's handle swap.
type serverEngine struct{ s *Server }

func (e serverEngine) LSN() uint64 {
	if e.s.m == nil {
		return 0
	}
	return e.s.m.LSN()
}

func (e serverEngine) Apply(payloads [][]byte) error {
	if e.s.m == nil {
		return errors.New("engine is down")
	}
	return e.s.m.ApplyShipped(payloads...)
}

func (e serverEngine) Seal() error {
	if e.s.c == nil {
		return errors.New("engine is down")
	}
	return e.s.c.Sync()
}

// openEngine opens the durable corpus in dir and warm-loads a matcher
// over it: a node's start and a standby's install reopen the same way.
func openEngine(dir string, copts tsjoin.CorpusOptions, mopts tsjoin.ConcurrentMatcherOptions) (*tsjoin.ConcurrentMatcher, *tsjoin.Corpus, error) {
	c, err := tsjoin.OpenCorpus(dir, copts)
	if err != nil {
		return nil, nil, err
	}
	m, err := tsjoin.NewConcurrentMatcherFromCorpus(c, mopts)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return m, c, nil
}

// installEngine is the standby's install callback: close the serving
// handles, install the primary's snapshot into the data directory
// (corpus.Install), and reopen the engine from it as a restart would.
// Taking the engine write lock drains every in-flight read first. A
// failed install still reopens whatever the directory holds — the state
// before the install, or the installed one — so the standby keeps
// serving; only a failed reopen leaves the handles nil, and readLocked
// then answers 503.
func (s *Server) installEngine(snapshot []byte) (replica.Applier, error) {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	s.closeLocked()
	_, ierr := corpus.Install(s.dataDir, snapshot, corpus.Options{FS: s.copts.FS, DisableSync: s.copts.DisableSync})
	m, c, err := openEngine(s.dataDir, s.copts, s.mopts)
	if err != nil {
		return nil, errors.Join(ierr, fmt.Errorf("reopening the engine: %w", err))
	}
	s.m, s.c = m, c
	if ierr != nil {
		return nil, ierr
	}
	return serverEngine{s}, nil
}

// closeEngine shuts the current handles down at process exit; it reads
// them under the write lock because a standby may have swapped them
// since startup.
func (s *Server) closeEngine() {
	s.engMu.Lock()
	defer s.engMu.Unlock()
	s.closeLocked()
}

// closeLocked closes the engine handles; caller holds engMu.
func (s *Server) closeLocked() {
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
// replaced by the primary's snapshot at the primary's discretion.
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
