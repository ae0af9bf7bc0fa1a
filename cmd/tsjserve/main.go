// Command tsjserve serves an incremental NSLD matcher over HTTP/JSON —
// the sign-up-screening scenario as a service. A node (the default) is
// internal/serve: see its package comment for the endpoints,
// persistence (-data), replication (-replica-of) and degraded mode.
//
// With -coordinator it instead serves the single-node wire contract
// over a fleet of worker tsjserves (internal/distrib). The coordinator
// owns no corpus — it owns the epoch-stamped partition map, the global
// id table, the membership heartbeats that promote worker standbys, and
// the scatter/merge logic.
//
// Either way internal/serve answers, under one request lifecycle, and
// the process shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"errors"
	"flag"
	"log"
	"time"

	tsjoin "repro"
	"repro/internal/distrib"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsjserve: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run parses the flags and hands the process to a node or a
// coordinator; either returns only after its shutdown sequence, so
// main's log.Fatal never skips a close.
func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	threshold := flag.Float64("threshold", 0.1, "NSLD threshold T in [0, 1)")
	maxFreq := flag.Int("maxfreq", 0, "max token frequency M: tokens held by more than M live strings generate no candidates (0 = unlimited)")
	shards := flag.Int("shards", 0, "index shards (0 = GOMAXPROCS)")
	greedy := flag.Bool("greedy", false, "greedy-token-aligning verification")
	exactTokens := flag.Bool("exact-tokens", false, "exact-token matching only")
	dataDir := flag.String("data", "", "persistence directory (empty = in-memory only)")
	syncEvery := flag.Int("sync-every", 1, "fsync the WAL every N records (1 = every add durable on return)")
	snapshotEvery := flag.Duration("snapshot-every", 0, "checkpoint the corpus on this interval (0 = manual /snapshot only)")
	maxInflight := flag.Int("max-inflight", 256, "concurrent requests before load shedding with 503")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "HTTP response write timeout")
	idleTimeout := flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection timeout")
	replicaOf := flag.String("replica-of", "", "run as a warm standby replicating from this primary base URL (requires -data and -advertise; read-only until promoted)")
	advertise := flag.String("advertise", "", "base URL the primary should ship to this node at, e.g. http://10.0.0.2:8080 (required with -replica-of)")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator over -workers instead of serving an index")
	workersSpec := flag.String("workers", "", "coordinator: comma-separated worker shards, each primary|standby1|standby2...")
	heartbeat := flag.Duration("heartbeat", time.Second, "coordinator: membership probe interval")
	failAfter := flag.Int("fail-after", 3, "coordinator: consecutive missed heartbeats before a standby is promoted")
	queryTimeout := flag.Duration("query-timeout", 2*time.Second, "coordinator: scatter deadline")
	flag.Parse()

	if *coordinator {
		if *dataDir != "" || *replicaOf != "" {
			return errors.New("-coordinator does not serve an index: drop -data/-replica-of (workers own the corpora)")
		}
		pm, err := distrib.ParseWorkers(*workersSpec)
		if err != nil {
			return errors.New("coordinator: " + err.Error() + " (use -workers=primary|standby,primary,...)")
		}
		co := distrib.New(pm, distrib.Options{
			QueryTimeout: *queryTimeout,
			WriteTimeout: *writeTimeout,
			Heartbeat:    *heartbeat,
			FailAfter:    *failAfter,
			Logf:         log.Printf,
		})
		defer co.Close()
		log.Printf("coordinator listening on %s (%d shards, heartbeat=%v, fail-after=%d)",
			*addr, len(pm.Shards), *heartbeat, *failAfter)
		return serve.ListenAndServe(*addr, serve.CoordinatorHandler(co, *maxInflight), *writeTimeout, *idleTimeout, co.Run)
	}
	if *workersSpec != "" {
		return errors.New("-workers requires -coordinator")
	}

	s, err := serve.New(serve.Config{
		Matcher: tsjoin.ConcurrentMatcherOptions{
			MatcherOptions: tsjoin.MatcherOptions{
				Threshold:       *threshold,
				MaxTokenFreq:    *maxFreq,
				Greedy:          *greedy,
				ExactTokensOnly: *exactTokens,
			},
			Shards: *shards,
		},
		DataDir:       *dataDir,
		Corpus:        tsjoin.CorpusOptions{SyncEvery: *syncEvery},
		SnapshotEvery: *snapshotEvery,
		MaxInflight:   *maxInflight,
		ReplicaOf:     *replicaOf,
		Advertise:     *advertise,
	})
	if err != nil {
		return err
	}
	return s.Run(*addr, *writeTimeout, *idleTimeout)
}
