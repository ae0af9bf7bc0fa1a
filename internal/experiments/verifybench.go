package experiments

import (
	"fmt"

	"repro/internal/tsj"
)

// VerifyBenchConfig parameterizes the verify-stage timing sweep
// (tsjexp -verify).
type VerifyBenchConfig struct {
	Seed     int64
	NumNames int       // 0 = 10000
	Ts       []float64 // thresholds; nil = {0.1, 0.2, 0.3}
}

// VerifyBench contrasts the threshold-aware bounded verifier against the
// exact unbounded one across thresholds, reporting the verify-stage wall
// time (the dedup+filter+verify MapReduce job, measured in-process) plus
// the stats that explain it. Result sets are identical by construction
// (asserted by the equivalence tests); this table is how BENCH
// trajectories track the verify-stage speedup over time.
func VerifyBench(cfg VerifyBenchConfig) *Table {
	if cfg.NumNames <= 0 {
		cfg.NumNames = 10000
	}
	if len(cfg.Ts) == 0 {
		cfg.Ts = []float64{0.1, 0.2, 0.3}
	}
	w := Workload{Seed: cfg.Seed, NumNames: cfg.NumNames}
	c := w.Corpus()

	tab := &Table{
		ID:     "verify",
		Title:  fmt.Sprintf("Verify-stage wall time, bounded vs exact (n=%d)", cfg.NumNames),
		Header: []string{"T", "verifier", "verify-wall-ms", "verified", "budget-pruned", "results"},
		Notes: []string{
			"verify-wall-ms is the in-process reduce-phase wall of the dedup+filter+verify job (the dedup shuffle is charged to candidate generation)",
			"budget-pruned counts pairs the SLD budget rejected before the alignment finished",
		},
	}
	for _, t := range cfg.Ts {
		for _, mode := range []struct {
			name           string
			disableBounded bool
		}{
			{"bounded", false},
			{"exact", true},
		} {
			opts := tsj.DefaultOptions()
			opts.Threshold = t
			opts.DisableBoundedVerify = mode.disableBounded
			_, st, err := tsj.SelfJoin(c, opts)
			if err != nil {
				// Only reachable with a threshold outside [0, 1) in
				// cfg.Ts — a programming error in the caller (tsjexp
				// validates before calling).
				panic(err)
			}
			tab.AddRow(
				fmt.Sprintf("%.2f", t),
				mode.name,
				fmt.Sprintf("%.2f", float64(st.Pipeline.ReduceWallOf("dedup-verify").Microseconds())/1000),
				st.Verified,
				st.BudgetPruned,
				st.Results,
			)
		}
	}
	return tab
}
