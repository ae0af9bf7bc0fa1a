// Package experiments regenerates every figure of the paper's evaluation
// (Sec. V) on the synthetic workload, printing the same series the paper
// plots. Each figure has a dedicated runner; cmd/tsjexp and the root
// benchmarks are thin wrappers around them.
//
// Runtime figures use the simulated cluster of internal/mapreduce: task
// costs are measured during the real in-process execution, then scheduled
// onto m simulated machines. The per-job overhead is calibrated once per
// figure from the reference configuration (see calibrate) so that the
// reference speedup saturates the way the paper's does; all series within
// a figure share the same cluster constants, so every comparison between
// algorithms is measurement-driven.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"

	"repro/internal/mapreduce"
	"repro/internal/namegen"
	"repro/internal/token"
)

// Workload parameterizes the synthetic dataset standing in for the
// paper's 44.4M Google-account names.
type Workload struct {
	Seed     int64
	NumNames int
	// HMJNames optionally reduces the corpus for the HMJ comparison
	// (Fig. 7); 0 means NumNames.
	HMJNames int
	// NumChanges is the labeled name-change sample size for Fig. 6;
	// 0 means the paper's 10,000.
	NumChanges int
}

// DefaultWorkload is sized to run every figure in minutes on one machine.
func DefaultWorkload() Workload {
	return Workload{Seed: 42, NumNames: 10000, HMJNames: 4000, NumChanges: 10000}
}

// Corpus materializes the workload.
func (w Workload) Corpus() *token.Corpus {
	names := namegen.Generate(namegen.Config{Seed: w.Seed, NumNames: w.NumNames})
	return token.BuildCorpus(names, token.WhitespaceAndPunct)
}

// Table is one reproduced figure: a titled grid with the paper's series
// as columns.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case int:
			row[i] = strconv.Itoa(v)
		case int64:
			row[i] = strconv.FormatInt(v, 10)
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 6, 64)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned text rendition.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range t.Header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Machines is the paper's sweep: 100 to 1,000 in steps of 100.
var Machines = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

// Thresholds is the paper's T sweep for Figs. 2 and 4.
var Thresholds = []float64{0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.175, 0.2, 0.225}

// MaxFreqs is the paper's M sweep for Figs. 3 and 5.
var MaxFreqs = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}

// calibrate builds the cluster constants for a figure. The per-job
// overhead is set from the reference pipeline so that the reference
// configuration exhibits the paper's ~3.8x speedup from 100 to 1,000
// machines; everything else (task skew, per-task startup, relative
// algorithm costs) comes from measurements. The same Cluster (modulo the
// machine count) is applied to every series of the figure.
func calibrate(ref *mapreduce.Pipeline) func(machines int) mapreduce.Cluster {
	const target = 3.8 // the paper's reference speedup for 10x machines
	// Scheduling time (makespans + shuffle, no per-job overhead) at both
	// ends of the sweep, from the measured task costs.
	zero := func(machines int) mapreduce.Cluster {
		c := mapreduce.DefaultCluster(machines)
		c.PerJobOverheadSec = 0
		return c
	}
	s100 := zero(100).PipelineSeconds(ref)
	s1000 := zero(1000).PipelineSeconds(ref)
	nJobs := float64(len(ref.Jobs))
	if nJobs == 0 {
		nJobs = 1
	}
	// Solve (n*O + S100) / (n*O + S1000) = target for the per-job
	// overhead O. If the measured schedule is already skew-limited below
	// the target (S100/S1000 < target), no overhead can reach it; use a
	// negligible one and let the measured skew dictate the curve.
	overhead := (s100 - target*s1000) / (target - 1) / nJobs
	if overhead < 1e-9 {
		overhead = 1e-9
	}
	return func(machines int) mapreduce.Cluster {
		c := mapreduce.DefaultCluster(machines)
		c.PerJobOverheadSec = overhead
		return c
	}
}

// fmtSecs renders simulated seconds compactly with enough significant
// digits that small-workload test runs keep their resolution.
func fmtSecs(s float64) string {
	return strconv.FormatFloat(s, 'g', 5, 64)
}

// fmtRecall renders recall with the paper's precision.
func fmtRecall(r float64) string {
	return strconv.FormatFloat(r, 'f', 6, 64)
}

// simMapTasks is the input-split count used for all simulated runs. The
// paper's cluster runs 1,000 mappers; using at least 2,000 splits lets the
// map phase of the simulated makespan scale to the full machine sweep
// regardless of how few cores the host running the simulation has.
const simMapTasks = 2000
