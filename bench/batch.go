package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	tsjoin "repro"
	"repro/bench/gen"
)

// defaultSeed is the seed the golden answers below were recorded at.
const defaultSeed = 1

// batchSpec is one batch self-join workload. One op is one whole
// tsjoin.SelfJoin of the input under the exact defaults (M = 0, fuzzy
// matching, Hungarian alignment).
type batchSpec struct {
	n         int
	threshold float64
	gen       func(seed int64, n int) []string
	// warmups is the number of untimed ops in setup: enough that setup_s
	// is about three seconds of engine work.
	warmups int
	// oracle is the size of the subsample the brute-force NSLD join
	// checks at the end of every run.
	oracle int
	// goldenPairs and goldenHash are the full answer at defaultSeed and
	// scale 1.
	goldenPairs int
	goldenHash  uint64
}

var joinNames = batchSpec{
	n: 8000, threshold: 0.1, gen: gen.Names, warmups: 50, oracle: 300,
	goldenPairs: 1160, goldenHash: 0x41500504524e510f,
}

var joinLong = batchSpec{
	n: 260, threshold: 0.3, gen: gen.Long, warmups: 42, oracle: 150,
	goldenPairs: 161, goldenHash: 0xc3b78f46fe6494d2,
}

type batchInst struct {
	spec  batchSpec
	c     *config
	names []string
	opts  tsjoin.Options
	// want is the answer of the first op; every later op must repeat it.
	want      []tsjoin.Pair
	wantHash  uint64
	nextOp    int64
	opTimes   []joinTimes   // traced ops only
	lastStats *tsjoin.Stats // of the last traced op, for the exact counters
}

func setupBatch(c *config, spec batchSpec) (instance, error) {
	b := &batchInst{spec: spec, c: c, opts: tsjoin.Options{Threshold: spec.threshold}}
	b.names = spec.gen(c.seed, c.scaled(spec.n, 60))
	for i := 0; i < c.scaled(spec.warmups, 2); i++ {
		if i%8 == 7 {
			c.tick()
		}
		pairs, _, err := b.op()
		if err != nil {
			return nil, err
		}
		if i == 0 {
			b.want, b.wantHash = pairs, hashPairs(pairs)
		} else if h := hashPairs(pairs); h != b.wantHash {
			return nil, fmt.Errorf("warm-up op %d answered %d pairs (hash %x), the first op %d pairs (hash %x)", i, len(pairs), h, len(b.want), b.wantHash)
		}
	}
	return b, nil
}

func (b *batchInst) op() ([]tsjoin.Pair, *tsjoin.Stats, error) {
	return tsjoin.SelfJoinStats(b.names, b.opts)
}

// hashPairs hashes (A, B, SLD) of a join answer in the order SelfJoin
// returns it, which is sorted by (A, B).
func hashPairs(pairs []tsjoin.Pair) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, p := range pairs {
		for i, v := range [3]int{p.A, p.B, p.SLD} {
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (b *batchInst) round(d time.Duration, w *window, tr *tracer) int {
	ops := 0
	for start := time.Now(); time.Since(start) < d; ops++ {
		t0 := time.Now()
		pairs, st, err := b.op()
		t1 := time.Now()
		w.lat = append(w.lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
		if err != nil {
			w.fail("op %d: %v", b.nextOp, err)
		} else if h := hashPairs(pairs); h != b.wantHash {
			w.fail("op %d answered %d pairs (hash %x), want %d (hash %x)", b.nextOp, len(pairs), h, len(b.want), b.wantHash)
		}
		if tr != nil && err == nil {
			b.traceOp(tr, t0, t1, st)
		}
		b.nextOp++
	}
	return ops * len(b.names)
}

// traceOp records one op's spans. The op itself was observed; the jobs
// inside it are laid out from the wall times the engine's Stats report.
func (b *batchInst) traceOp(tr *tracer, t0, t1 time.Time, st *tsjoin.Stats) {
	root := tr.add("tsjoin.SelfJoin", 0, b.nextOp, t0, t1, false)
	at := t0
	for _, j := range st.Pipeline.Jobs {
		id := tr.add("mapreduce:"+j.Name, root, b.nextOp, at, at.Add(j.WallTime), true)
		tr.add("mapreduce:"+j.Name+":map", id, b.nextOp, at, at.Add(j.MapWall), true)
		tr.add("mapreduce:"+j.Name+":reduce", id, b.nextOp, at.Add(j.MapWall), at.Add(j.MapWall+j.ReduceWall), true)
		at = at.Add(j.WallTime)
	}
	b.opTimes, b.lastStats = append(b.opTimes, extractJoinTimes(st)), st
}

func (b *batchInst) cpu() time.Duration { return selfCPU() }

func (b *batchInst) peakRSSMB() float64 {
	mb, err := peakRSSMB(0)
	if err != nil {
		return math.NaN()
	}
	return mb
}

// stringsPerS is N over the median op: one op joins all N strings.
func (b *batchInst) stringsPerS(w *window) float64 {
	return float64(len(b.names)) / w.p50() * 1000
}

// verify checks the answer every op repeated: against the golden at the
// default seed, and at any seed against a brute-force NSLD join of the
// first oracle strings (rings are planted next to their seed string, so a
// prefix holds whole rings).
func (b *batchInst) verify(w *window) {
	if b.c.seed == defaultSeed && b.c.scale == 1 && b.spec.goldenPairs != 0 {
		w.attempted++
		if len(b.want) != b.spec.goldenPairs || b.wantHash != b.spec.goldenHash {
			w.fail("answer is %d pairs (hash %#x), golden is %d pairs (hash %#x)", len(b.want), b.wantHash, b.spec.goldenPairs, b.spec.goldenHash)
		}
	}
	w.attempted++
	if err := b.checkOracle(); err != nil {
		w.fail("oracle: %v", err)
	}
}

func (b *batchInst) checkOracle() error {
	m := b.spec.oracle
	if m > len(b.names) {
		m = len(b.names)
	}
	toks := make([]tsjoin.TokenizedString, m)
	for i := range toks {
		toks[i] = tsjoin.Tokenize(b.names[i])
	}
	type key struct{ a, b int }
	got := make(map[key]int)
	for _, p := range b.want {
		if p.A < m && p.B < m {
			got[key{p.A, p.B}] = p.SLD
		}
	}
	const eps = 1e-9 // a pair exactly on the threshold may fall either way
	found := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			nsld := tsjoin.NSLDTokens(toks[i], toks[j])
			sld, ok := got[key{i, j}]
			switch {
			case nsld <= b.spec.threshold-eps && !ok:
				return fmt.Errorf("pair (%d, %d) %q ~ %q has NSLD %.4f and is missing", i, j, b.names[i], b.names[j], nsld)
			case nsld > b.spec.threshold+eps && ok:
				return fmt.Errorf("pair (%d, %d) %q ~ %q has NSLD %.4f and was returned", i, j, b.names[i], b.names[j], nsld)
			case ok && sld != tsjoin.SLDTokens(toks[i], toks[j]):
				return fmt.Errorf("pair (%d, %d): SLD %d returned, %d expected", i, j, sld, tsjoin.SLDTokens(toks[i], toks[j]))
			}
			if ok {
				found++
			}
		}
	}
	if found != len(got) {
		return fmt.Errorf("%d returned pairs inside the subsample, %d accounted for", len(got), found)
	}
	if found == 0 {
		return fmt.Errorf("the %d-string subsample holds no similar pair: the check is vacuous", m)
	}
	return nil
}

func (b *batchInst) close() error { return nil }

// layers: the tsj and mapreduce numbers are medians over the traced ops'
// own Stats; the rest comes from calling each layer on this input.
func (b *batchInst) layers(traced *window, tr *tracer) (map[string]float64, error) {
	if len(b.opTimes) == 0 {
		return nil, fmt.Errorf("no traced op completed")
	}
	v := map[string]float64{
		// Layers that only exist in the served system.
		"replica.ack_overhead_ms": 0, "replica.lag_records": 0, "distrib.scatter_overhead_ms": 0,
		"tsjserve.http_floor_ms": 0, "tsjserve.handler_p50_ms": 0, "tsjserve.op_p99_ms": 0,
	}
	joinStatsMetrics(v, b.opTimes, b.lastStats, len(b.names))
	if err := probeLayers(v, b.c, b.names, b.spec.threshold, tr); err != nil {
		return nil, err
	}
	if err := probeStream(v, b.names, b.spec.threshold, tr); err != nil {
		return nil, err
	}
	jobs := make([]float64, len(b.opTimes))
	for i, t := range b.opTimes {
		jobs[i] = t.jobs
	}
	attributed := median(jobs) + v["token.build_ms"] + v["prefilter.index_ms"]
	v["trace.unattributed_frac"] = 1 - attributed/traced.rawP50()
	return v, nil
}
