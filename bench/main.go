// Command bench is the repository's benchmark: four workloads, six
// end-to-end metrics each, and — in a separate -trace run — per-layer
// metrics recorded from outside the engine. See README.md beside this
// file for the definitions and BENCHMARK.json at the repository root for
// the contract the numbers are judged against.
//
//	bench/run.sh --workload join_names --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	tsjoin "repro"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks input sizes and warm-ups; 1 is the benchmark, the
	// smoke test runs at 1/50.
	scale    float64
	outDir   string
	tsjserve string
	// speeds collects the canary readings a set-up takes at its quiet
	// moments (tick); run divides the set-up's time by their median.
	speeds []float64
}

// tick reads the canary. Set-ups call it between their phases, when
// nothing of the workload is running.
func (c *config) tick() { c.speeds = append(c.speeds, canary()) }

// scaled is n shrunk by the run's scale, at least min.
func (c *config) scaled(n, min int) int {
	if s := int(float64(n) * c.scale); s > min {
		return s
	}
	return min
}

// envRecord is stored in every result and trace file, and compared before
// two results are: numbers from different core counts or with and without
// the vector kernels are not comparable.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	SIMD       bool   `json:"simd_available"`
	Seed       int64  `json:"seed"`
	GitCommit  string `json:"git_commit"`
}

// engineProcs is the GOMAXPROCS every engine process runs with.
const engineProcs = 2

func environment(seed int64) envRecord {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		SIMD:       tsjoin.SIMDAvailable(),
		Seed:       seed,
		GitCommit:  commit,
	}
}

// comparable reports why two environments' numbers must not be compared.
func (e envRecord) comparable(o envRecord) error {
	if e.NProc != o.NProc || e.GOMAXPROCS != o.GOMAXPROCS {
		return fmt.Errorf("core counts differ: nproc %d/GOMAXPROCS %d against %d/%d", e.NProc, e.GOMAXPROCS, o.NProc, o.GOMAXPROCS)
	}
	if e.SIMD != o.SIMD {
		return fmt.Errorf("SIMD availability differs: %v against %v", e.SIMD, o.SIMD)
	}
	return nil
}

// instance is a workload that has been set up and is ready to be timed.
type instance interface {
	// round runs ops back to back (closed loop) for d, appending each
	// timed op's latency to w.lat and counting failures in w.failed. It
	// returns the number of strings the round processed.
	round(d time.Duration, w *window, tr *tracer) int
	// cpu is the user+system CPU time the engine process(es) have used.
	cpu() time.Duration
	// peakRSSMB is the engine process(es)' summed resident-set high-water
	// mark.
	peakRSSMB() float64
	// stringsPerS turns a finished window into the workload's throughput.
	stringsPerS(w *window) float64
	// verify runs the end-of-run correctness checks; each check counts as
	// one attempted op and each miss as one failed op.
	verify(w *window)
	// layers measures the per-layer metrics (trace runs only); traced is
	// the leg tr recorded.
	layers(traced *window, tr *tracer) (map[string]float64, error)
	// close stops every process the instance started and waits for it.
	close() error
}

// setupFunc generates the inputs from the seed, starts and loads the
// engine and warms it up: everything setup_s times.
type setupFunc func() (instance, error)

// workload is a named scenario. prepare does the harness's own work that
// is not the engine's set-up (computing expected answers) and returns the
// set-up to time.
type workload struct {
	name    string
	prepare func(c *config) (setupFunc, error)
}

func just(setup func(c *config) (instance, error)) func(c *config) (setupFunc, error) {
	return func(c *config) (setupFunc, error) {
		return func() (instance, error) { return setup(c) }, nil
	}
}

var workloads = []workload{
	{"join_names", just(func(c *config) (instance, error) { return setupBatch(c, joinNames) })},
	{"join_long", just(func(c *config) (instance, error) { return setupBatch(c, joinLong) })},
	{"serve_write", just(setupServeWrite)},
	{"serve_read", prepareServeRead},
}

// A window is cut into numRounds equal rounds with a canary reading
// between them. Every op's latency, and every round's throughput and CPU
// per string, is divided by (times, for throughput) the canary's time
// around its round, and the end-to-end metrics are computed over the
// quietRounds rounds whose median op was fastest on the clock.
//
// Both steps answer what a shared 2-vCPU guest does to a timing: for
// anything from a tenth of a second to minutes, a neighbour on the sibling
// hardware threads makes the same op take 1.2 to 2 times as long, user CPU
// time included. That noise is one-sided — nothing makes an op faster than
// the code allows — so the quietest rounds follow the code where a
// statistic over all rounds follows the neighbour; and what is left of it
// in the quietest rounds slows the canary's arithmetic by about the same
// factor, so dividing by the canary takes most of the rest out.
const (
	numRounds   = 60
	quietRounds = 24
)

// setupReps is how many times an untraced run sets the workload up: the
// median is setup_s, so that one slow process launch does not decide it.
const setupReps = 3

// window is what timing a set-up workload for a while produced.
type window struct {
	lat       []float64 // ms, every timed op
	rounds    []roundStat
	attempted int
	failed    int
	canary    []float64 // ms, one per round boundary
	// notes are the first few failure messages, for the reader.
	notes []string
}

type roundStat struct {
	strings int
	wall    time.Duration
	cpu     time.Duration
	// first and n locate the round's ops in window.lat; p50 is their
	// median; canary is the mean of the canaries timed just before and just
	// after the round.
	first, n int
	p50      float64
	canary   float64
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.notes) < 5 {
		w.notes = append(w.notes, fmt.Sprintf(format, args...))
	}
}

// measure times in for total, in rounds equal rounds.
func measure(in instance, total time.Duration, rounds int, tr *tracer) *window {
	w := &window{canary: []float64{canary()}}
	for i := 0; i < rounds; i++ {
		cpu0, t0, first := in.cpu(), time.Now(), len(w.lat)
		n := in.round(total/time.Duration(rounds), w, tr)
		r := roundStat{strings: n, wall: time.Since(t0), cpu: in.cpu() - cpu0, first: first, n: len(w.lat) - first}
		r.p50 = median(w.lat[first:])
		w.canary = append(w.canary, canary())
		r.canary = (w.canary[i] + w.canary[i+1]) / 2
		w.rounds = append(w.rounds, r)
	}
	w.attempted = len(w.lat)
	return w
}

// quiet returns the rounds with the fastest median op — quietRounds in
// numRounds of them — and their ops pooled, both as the clock read them
// (raw) and divided by their round's canary (lat).
func (w *window) quiet() (rounds []roundStat, lat, raw []float64) {
	rounds = append(rounds, w.rounds...)
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].p50 < rounds[j].p50 })
	keep := (len(rounds)*quietRounds + numRounds - 1) / numRounds
	rounds = rounds[:keep]
	for _, r := range rounds {
		for _, l := range w.lat[r.first : r.first+r.n] {
			raw = append(raw, l)
			lat = append(lat, l/r.canary)
		}
	}
	return rounds, lat, raw
}

// overQuiet is the median of f over the quiet rounds.
func (w *window) overQuiet(f func(roundStat) float64) float64 {
	rounds, _, _ := w.quiet()
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return median(out)
}

// p50 is the median op of the quiet rounds, at the canary's speed.
func (w *window) p50() float64 {
	_, lat, _ := w.quiet()
	return median(lat)
}

// rawP50 is the median op of the quiet rounds as the clock read it: what
// a trace run compares layer times with, which are clock times too.
func (w *window) rawP50() float64 {
	_, _, raw := w.quiet()
	return median(raw)
}

// cpuMsPerString is CPU time over strings per round, at the canary's
// speed, median over the quiet rounds.
func (w *window) cpuMsPerString() float64 {
	return w.overQuiet(func(r roundStat) float64 { return ms(r.cpu) / float64(r.strings) / r.canary })
}

// speed is the canary's time in ms around the quiet rounds (their median):
// 1 on a quiet machine of the class the canary was sized on, 1.4 while a
// neighbour shares the cores.
func (w *window) speed() float64 {
	return w.overQuiet(func(r roundStat) float64 { return r.canary })
}

// report is everything one run learned; it is written to
// <out>/result_<workload>.json and its metrics go on the last stdout line.
type report struct {
	Workload     string             `json:"workload"`
	Env          envRecord          `json:"env"`
	Trace        bool               `json:"trace"`
	Seconds      float64            `json:"seconds"`
	Scale        float64            `json:"scale"`
	Metrics      map[string]metric  `json:"metrics"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	Noise        map[string]float64 `json:"noise"`
	// Samples is the number of timed ops (those of the quiet rounds) behind
	// op_p50_ms and op_p90_ms, and how many of them lie beyond the p90.
	Samples      int       `json:"samples"`
	BeyondP90    int       `json:"samples_beyond_p90"`
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	// Speed is the canary's time in ms over the quiet rounds, by which
	// every time in Metrics was divided; Raw holds the same metrics as the
	// clock read them.
	Speed float64            `json:"speed,omitempty"`
	Raw   map[string]float64 `json:"raw,omitempty"`
	// LegP50Ms is the op p50 of a trace run's two legs, whose difference
	// is trace.overhead_pct.
	LegP50Ms map[string]float64 `json:"leg_p50_ms,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Rounds   []roundReport      `json:"rounds,omitempty"`
}

// roundReport is one round as measured, for a reader who wants to see the
// machine's speed move under the run.
type roundReport struct {
	Ops            int     `json:"ops"`
	CanaryMs       float64 `json:"canary_ms"`
	OpP50Ms        float64 `json:"op_p50_ms"`
	StringsPerS    float64 `json:"strings_per_s"`
	CPUMsPerString float64 `json:"cpu_ms_per_string"`
}

// unattributedLimit fails a trace run whose layers explain too little of
// the op: the per-layer numbers would then not be worth reading.
const unattributedLimit = 0.15

func run(c *config) (*report, error) {
	if runtime.NumCPU() < engineProcs {
		return nil, fmt.Errorf("nproc is %d: the benchmark needs at least %d CPUs", runtime.NumCPU(), engineProcs)
	}
	runtime.GOMAXPROCS(engineProcs)
	var wl *workload
	for i := range workloads {
		if workloads[i].name == c.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workload: wl.name, Env: environment(c.seed), Trace: c.trace, Seconds: c.seconds, Scale: c.scale}
	total := time.Duration(c.seconds * float64(time.Second))

	// Set up. An untraced run does it setupReps times for a steady
	// setup_s and keeps the last; a trace run reports no setup_s.
	reps := setupReps
	if c.trace {
		reps = 1
	}
	setup, err := wl.prepare(c)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", wl.name, err)
	}
	var in instance
	for i := 0; i < 5; i++ {
		canary() // an idle guest's vCPUs take a while to wake; read them awake
	}
	var setupAtSpeed []float64 // each set-up's time over the canary's during it
	for i := 0; i < reps; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("%s: close after setup %d: %w", wl.name, i, err)
			}
		}
		c.speeds = c.speeds[:0]
		c.tick()
		t0 := time.Now()
		if in, err = setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
		}
		took := time.Since(t0).Seconds()
		c.tick()
		rep.SetupSeconds = append(rep.SetupSeconds, took)
		setupAtSpeed = append(setupAtSpeed, took/median(c.speeds))
	}
	defer in.close() // on the error paths; closing twice is harmless

	values := make(map[string]float64)
	var w *window
	defs := endToEnd
	if !c.trace {
		w = measure(in, total, numRounds, nil)
		_, lat, raw := w.quiet()
		rep.Samples, rep.BeyondP90 = len(lat), beyond(len(lat), 0.9)
		rep.Speed = w.speed()
		rep.Raw = map[string]float64{
			"setup_s":           median(rep.SetupSeconds),
			"op_p50_ms":         median(raw),
			"op_p90_ms":         quantile(raw, 0.9),
			"cpu_ms_per_string": w.overQuiet(func(r roundStat) float64 { return ms(r.cpu) / float64(r.strings) }),
		}
		values["setup_s"] = median(setupAtSpeed)
		values["strings_per_s"] = in.stringsPerS(w)
		values["op_p50_ms"] = median(lat)
		values["op_p90_ms"] = quantile(lat, 0.9)
		values["cpu_ms_per_string"] = w.cpuMsPerString()
		values["peak_rss_mb"] = in.peakRSSMB()
		in.verify(w)
	} else {
		// A short leg with tracing off, then the traced leg: their
		// difference is what tracing costs. The layers' own legs follow.
		defs = perLayer
		tr := newTracer()
		untraced := measure(in, total/4, numRounds/4, nil)
		w = measure(in, total/2, numRounds/2, tr)
		var err error
		if values, err = in.layers(w, tr); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", wl.name, err)
		}
		values["trace.overhead_pct"] = (w.p50()/untraced.p50() - 1) * 100
		rep.LegP50Ms = map[string]float64{"untraced": untraced.rawP50(), "traced": w.rawP50()}
		w.attempted += untraced.attempted
		w.failed += untraced.failed
		w.notes = append(w.notes, untraced.notes...)
		in.verify(w)
		if err := tr.write(filepath.Join(c.outDir, "trace_"+wl.name+".json"), rep.Env); err != nil {
			return nil, err
		}
	}
	if err := in.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", wl.name, err)
	}

	var missing []string
	if rep.Metrics, missing = withUnits(defs, values); len(missing) > 0 {
		return nil, fmt.Errorf("%s: metrics not measured: %v", wl.name, missing)
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: %s is %v", wl.name, name, m.Value)
		}
	}
	rep.OpsAttempted, rep.OpsFailed, rep.Notes = w.attempted, w.failed, w.notes
	for _, r := range w.rounds {
		rep.Rounds = append(rep.Rounds, roundReport{
			CanaryMs: r.canary, OpP50Ms: r.p50, Ops: r.n,
			StringsPerS: float64(r.strings) / r.wall.Seconds(), CPUMsPerString: ms(r.cpu) / float64(r.strings),
		})
	}
	rep.Noise = map[string]float64{"canary_spread_pct": spreadPct(w.canary), "canary_median_ms": median(w.canary)}
	if c.trace && values["trace.unattributed_frac"] > unattributedLimit {
		return rep, fmt.Errorf("%s: trace.unattributed_frac %.3f is above %.2f: the layers do not explain the op",
			wl.name, values["trace.unattributed_frac"], unattributedLimit)
	}
	return rep, nil
}

// traceFlag accepts the driver's "--trace 0|1" as well as a bare "-trace".
type traceFlag bool

func (t *traceFlag) String() string { return fmt.Sprint(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	switch s {
	case "1", "true":
		*t = true
	case "0", "false":
		*t = false
	default:
		return fmt.Errorf("want 0 or 1, got %q", s)
	}
	return nil
}

func main() {
	c := &config{}
	var trace traceFlag
	var aa bool
	var aaRuns int
	var contractPath string
	flag.StringVar(&c.workload, "workload", "", "join_names, join_long, serve_write or serve_read")
	flag.Int64Var(&c.seed, "seed", defaultSeed, "seed the inputs are generated from")
	flag.Float64Var(&c.seconds, "seconds", 15, "length of the timed window")
	flag.Var(&trace, "trace", "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.Float64Var(&c.scale, "scale", 1, "input-size scale; 1 is the benchmark")
	flag.StringVar(&c.outDir, "out", filepath.Join("bench", "out"), "directory for result, trace and server data files")
	flag.StringVar(&c.tsjserve, "tsjserve", "", "tsjserve binary (default: beside this binary)")
	flag.BoolVar(&aa, "aa", false, "run every workload in two alternating sets and compare the sets against the bounds")
	flag.IntVar(&aaRuns, "aa-runs", 3, "runs per set under -aa (the acceptance check uses 10)")
	flag.StringVar(&contractPath, "contract", "BENCHMARK.json", "the contract -aa reads workloads, window length and bounds from")
	flag.Parse()
	c.trace = bool(trace)
	if c.tsjserve == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		c.tsjserve = filepath.Join(filepath.Dir(exe), "tsjserve")
	}
	if aa {
		if err := runAA(c, contractPath, aaRuns); err != nil {
			fatal(err)
		}
		return
	}

	rep, err := run(c)
	if rep != nil {
		b, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			fatal(merr)
		}
		if werr := os.WriteFile(filepath.Join(c.outDir, "result_"+rep.Workload+".json"), b, 0o644); werr != nil {
			fatal(werr)
		}
		fmt.Printf("%s\n", b)
	}
	if err != nil {
		fatal(err)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.OpsFailed == 0, rep.OpsAttempted, rep.OpsFailed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", last)
}

func fatal(err error) {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		fmt.Fprintf(os.Stderr, "bench: %v\n%s\n", err, ee.Stderr)
	} else {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
	os.Exit(1)
}
