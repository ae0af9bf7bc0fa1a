// Command tsjexp regenerates the paper's evaluation figures (Sec. V) on
// the synthetic workload and prints each as an aligned table.
//
// Usage:
//
//	tsjexp -fig all            # every figure at the default workload
//	tsjexp -fig 1 -n 20000     # Fig. 1 on a 20k-name corpus
//	tsjexp -fig 7 -hmj 5000    # Fig. 7 with a 5k-name HMJ comparison
//
// Load-generator mode measures the concurrent ShardedMatcher's throughput
// against shard count (the serving-layer scaling story behind tsjserve):
//
//	tsjexp -load                          # sweep 1,2,4,GOMAXPROCS shards
//	tsjexp -load -n 50000 -clients 16 -shards 1,4,8,16
//
// With -cluster the same stream is driven over HTTP at a running
// tsjserve coordinator instead, and the report splits client-observed
// end-to-end latency from the worker-side engine wall time (the rest is
// routing, scatter/merge, and the network):
//
//	tsjexp -load -cluster http://localhost:8080 -n 2000 -qpa 2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsjexp: ")

	fig := flag.String("fig", "all", "figure to reproduce: 1..7, 'funnel', or 'all'")
	n := flag.Int("n", 0, "corpus size (default: 10000 for figures, 20000 for -load)")
	hmjN := flag.Int("hmj", 0, "corpus size for the HMJ comparison in fig 7 (default 4000)")
	seed := flag.Int64("seed", 42, "workload seed")
	load := flag.Bool("load", false, "load-generator mode: ShardedMatcher throughput vs shard count")
	clients := flag.Int("clients", 0, "load mode: concurrent clients (default 2*GOMAXPROCS)")
	shardList := flag.String("shards", "", "load mode: comma-separated shard counts (default 1,2,4,GOMAXPROCS)")
	queriesPerAdd := flag.Int("qpa", 1, "load mode: queries issued per add (0 for a write-only stream)")
	cluster := flag.String("cluster", "", "load mode: drive a tsjserve coordinator at this URL instead of the in-process matcher")
	flag.Parse()

	if *load && *cluster != "" {
		t, err := experiments.ClusterLoad(experiments.ClusterLoadConfig{
			Coordinator:   strings.TrimRight(*cluster, "/"),
			Seed:          *seed,
			NumNames:      *n,
			Clients:       *clients,
			QueriesPerAdd: *queriesPerAdd,
		})
		if err != nil {
			log.Fatal(err)
		}
		t.Render(os.Stdout)
		return
	}
	if *cluster != "" {
		log.Fatal("-cluster requires -load")
	}

	if *load {
		cfg := experiments.StreamLoadConfig{
			Seed:          *seed,
			NumNames:      *n,
			Clients:       *clients,
			QueriesPerAdd: *queriesPerAdd,
		}
		var err error
		if cfg.ShardCounts, err = parseShardList(*shardList); err != nil {
			log.Fatal(err)
		}
		experiments.StreamLoad(cfg).Render(os.Stdout)
		return
	}

	w := experiments.DefaultWorkload()
	w.Seed = *seed
	if *n > 0 {
		w.NumNames = *n
	}
	if *hmjN > 0 {
		w.HMJNames = *hmjN
	}

	switch *fig {
	case "all":
		for _, t := range experiments.All(w) {
			t.Render(os.Stdout)
		}
	case "1":
		experiments.Fig1(w).Render(os.Stdout)
	case "2":
		experiments.Fig2(w).Render(os.Stdout)
	case "3":
		experiments.Fig3(w).Render(os.Stdout)
	case "4":
		experiments.Fig4(w).Render(os.Stdout)
	case "5":
		experiments.Fig5(w).Render(os.Stdout)
	case "6":
		experiments.Fig6(w).Render(os.Stdout)
	case "7":
		experiments.Fig7(w).Render(os.Stdout)
	case "funnel":
		experiments.Funnel(w).Render(os.Stdout)
		experiments.SegmentFunnel(w).Render(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 1..7, funnel, or all)\n", *fig)
		os.Exit(2)
	}
}

// parseShardList parses "1,4,8" into shard counts ("" means defaults).
func parseShardList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q (want positive integers, e.g. -shards 1,4,8)", f)
		}
		out = append(out, n)
	}
	return out, nil
}
