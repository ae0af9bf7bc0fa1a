// Command tsjexp regenerates the paper's evaluation figures (Sec. V) on
// the synthetic workload and prints each as an aligned table.
//
// Usage:
//
//	tsjexp -fig all            # every figure at the default workload
//	tsjexp -fig 1 -n 20000     # Fig. 1 on a 20k-name corpus
//	tsjexp -fig 7 -hmj 5000    # Fig. 7 with a 5k-name HMJ comparison
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 1..7, 'funnel', or 'all'")
	n := flag.Int("n", 0, "corpus size (default 10000)")
	hmjN := flag.Int("hmj", 0, "corpus size for the HMJ comparison in fig 7 (default 4000)")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

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
