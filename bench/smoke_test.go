package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var tsjserveBin string

// TestMain builds the server the serve workloads drive.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tsjserveBin = filepath.Join(dir, "tsjserve")
	if out, err := exec.Command("go", "build", "-o", tsjserveBin, "repro/cmd/tsjserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build tsjserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// absentLayers are the per-layer metrics a workload reports as 0 because
// the layer has no part in it.
var absentLayers = map[string][]string{
	"join_names":  {"replica.", "distrib.", "tsjserve."},
	"join_long":   {"replica.", "distrib.", "tsjserve."},
	"serve_write": {"distrib."},
	"serve_read":  {"replica."},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, workload string, defs []metricDef, got map[string]metric, mayBeZero func(string) bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, the table has %d", workload, len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !nameRE.MatchString(d.Name):
			t.Errorf("metric name %q is outside the contract's alphabet", d.Name)
		case !ok:
			t.Errorf("%s: %s not reported", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s reported in %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is %v", workload, d.Name, m.Value)
		case m.Value == 0 && !mayBeZero(d.Name):
			t.Errorf("%s: %s is 0", workload, d.Name)
		}
	}
}

// TestSmoke runs all four workloads at 1/50 scale, untraced and traced,
// and checks that every metric of the tables is reported once, with its
// unit, and is a number.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < engineProcs {
		t.Skipf("needs %d CPUs", engineProcs)
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			c := &config{workload: wl.name, seed: 5, seconds: 0.4, trace: trace, scale: 0.02, outDir: t.TempDir(), tsjserve: tsjserveBin}
			rep, err := run(c)
			if rep == nil || (err != nil && !strings.Contains(err.Error(), "unattributed")) {
				// At this scale an op is a few microseconds and the layers'
				// sum check means nothing; every other error is a failure.
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if rep.OpsFailed != 0 || rep.OpsAttempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", wl.name, trace, rep.OpsFailed, rep.OpsAttempted, rep.Notes)
			}
			if !trace {
				checkMetrics(t, wl.name, endToEnd, rep.Metrics, func(string) bool { return false })
				continue
			}
			checkMetrics(t, wl.name, perLayer, rep.Metrics, func(name string) bool {
				for _, prefix := range absentLayers[wl.name] {
					if strings.HasPrefix(name, prefix) {
						return true
					}
				}
				// Differences and samples that can honestly be 0.
				switch name {
				case "replica.ack_overhead_ms", "replica.lag_records", "distrib.scatter_overhead_ms",
					"trace.overhead_pct", "trace.unattributed_frac", "corpus.fsync_ms", "core.lane_fill_pct":
					return true
				}
				return false
			})
			if _, err := os.Stat(filepath.Join(c.outDir, "trace_"+wl.name+".json")); err != nil {
				t.Errorf("%s: no trace file: %v", wl.name, err)
			}
		}
	}
}

// TestContract holds the harness's tables to BENCHMARK.json.
func TestContract(t *testing.T) {
	ct, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(ct.Workloads), len(workloads))
	}
	for i, w := range ct.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(ct.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the harness has %d", len(ct.EndToEnd), len(endToEnd))
	}
	for i, m := range ct.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json and %+v in the harness", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(ct.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the harness has %d", len(ct.PerLayer), len(perLayer))
	}
	for i, m := range ct.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json and %+v in the harness", i, m, perLayer[i])
		}
	}
}
