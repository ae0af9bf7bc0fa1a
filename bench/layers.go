package main

// Per-layer probes: each calls one layer's public functions on the
// workload's own strings, from outside, and times the call. They run in a
// -trace run after the timed legs, with nothing else of the benchmark
// running. Probe spans carry op id -1.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	tsjoin "repro"
	"repro/internal/assignment"
	"repro/internal/core"
	"repro/internal/massjoin"
	"repro/internal/prefilter"
	"repro/internal/strdist"
	"repro/internal/strdist/simd"
	"repro/internal/token"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs f reps times under a probe span and returns the median
// duration in ms.
func timed(tr *tracer, name string, reps int, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t0 := time.Now()
		f()
		t1 := time.Now()
		tr.add(name, 0, -1, t0, t1, false)
		d[i] = ms(t1.Sub(t0))
	}
	return median(d)
}

// joinTimes is the part of one self-join's Stats the tsj.* and mapreduce.*
// time metrics are made of. It is extracted op by op so that the Stats —
// which hold per-key cost arrays — are not kept alive across the traced
// leg, where they would grow the heap the join is being timed on.
type joinTimes struct {
	shared, similar, shuffle, verify, mapAll, reduceAll, jobs float64 // ms
}

func extractJoinTimes(st *tsjoin.Stats) joinTimes {
	p := &st.Pipeline
	return joinTimes{
		shared:    ms(p.WallTimeOf("shared-token")),
		similar:   ms(p.WallTimeOf("similar-token")),
		shuffle:   ms(p.MapWallOf("dedup-verify")),
		verify:    ms(p.ReduceWallOf("dedup-verify")),
		mapAll:    ms(p.MapWallOf("")),
		reduceAll: ms(p.ReduceWallOf("")),
		jobs:      ms(p.WallTimeOf("")),
	}
}

// joinStatsMetrics fills the tsj.* and mapreduce.* metrics for self-joins
// over n strings: times are medians over the ops, counters repeat exactly
// and are read from one op's Stats.
func joinStatsMetrics(v map[string]float64, times []joinTimes, st *tsjoin.Stats, n int) {
	over := func(f func(joinTimes) float64) float64 {
		d := make([]float64, len(times))
		for i, t := range times {
			d[i] = f(t)
		}
		return median(d)
	}
	v["tsj.shared_token_ms"] = over(func(t joinTimes) float64 { return t.shared })
	v["tsj.similar_token_ms"] = over(func(t joinTimes) float64 { return t.similar })
	v["tsj.dedup_shuffle_ms"] = over(func(t joinTimes) float64 { return t.shuffle })
	v["tsj.verify_ms"] = over(func(t joinTimes) float64 { return t.verify })
	v["mapreduce.map_ms"] = over(func(t joinTimes) float64 { return t.mapAll })
	v["mapreduce.reduce_ms"] = over(func(t joinTimes) float64 { return t.reduceAll })

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	v["tsj.candidates_per_string"] = ratio(st.SharedTokenCandidates+st.SimilarTokenCandidates, int64(n))
	v["tsj.prefix_pruned_frac"] = ratio(st.PrefixPruned, st.PrefixPruned+st.SharedTokenCandidates)
	v["tsj.budget_pruned_frac"] = ratio(st.BudgetPruned, st.Verified)
	v["tsj.verified_per_result"] = ratio(st.Verified, st.Results)
	v["mapreduce.shuffle_records"] = float64(st.Pipeline.TotalShuffled())
}

// verifySample is the population the verify-stage probes run on: among
// the first strings of the input, every pair that survives the length and
// lower-bound filters — what the join's verify stage is handed — grouped
// by probe string.
type verifySample struct {
	groups []verifyGroup
	pairs  int
}

type verifyGroup struct {
	x  token.TokenizedString
	ys []*token.TokenizedString
}

func sampleVerify(c *token.Corpus, t float64) verifySample {
	m := c.NumStrings()
	if m > 500 {
		m = 500
	}
	var s verifySample
	for i := 0; i < m; i++ {
		g := verifyGroup{x: c.Strings[i]}
		for j := i + 1; j < m; j++ {
			x, y := c.Strings[i], c.Strings[j]
			if core.LengthPrune(x.AggregateLen(), y.AggregateLen(), t) || core.LowerBoundPrune(x, y, t) {
				continue
			}
			g.ys = append(g.ys, &c.Strings[j])
		}
		if len(g.ys) > 0 {
			s.groups = append(s.groups, g)
			s.pairs += len(g.ys)
		}
	}
	return s
}

// probeLayers measures the in-process layers below the join on names at
// threshold t.
func probeLayers(v map[string]float64, c *config, names []string, t float64, tr *tracer) error {
	// token: the corpus build every batch op starts with.
	var corp *token.Corpus
	v["token.build_ms"] = timed(tr, "token.BuildCorpus", 5, func() {
		corp = token.BuildCorpus(names, token.WhitespaceAndPunct)
	})
	v["token.distinct_tokens"] = float64(corp.NumTokens())

	// prefilter: the prefix index both candidate generators consult.
	dropped := make([]bool, corp.NumTokens())
	var ix *prefilter.Index
	v["prefilter.index_ms"] = timed(tr, "prefilter.NewIndex", 5, func() {
		ix = prefilter.NewIndex(corp, dropped, t)
	})
	prefixTokens := 0
	for sid := 0; sid < corp.NumStrings(); sid++ {
		prefixTokens += len(ix.Prefix(token.StringID(sid)))
	}
	v["prefilter.prefix_tokens_per_string"] = float64(prefixTokens) / float64(corp.NumStrings())

	// massjoin: the token-space NLD join behind the similar-token path,
	// over the whole token space (the join restricts it to prefix tokens).
	var similar int
	v["massjoin.selfjoin_ms"] = timed(tr, "massjoin.SelfJoinNLD", 3, func() {
		pairs, _ := massjoin.SelfJoinNLD(corp.TokenRunes, t, massjoin.Config{MultiMatchAware: true, NamePrefix: "bench-massjoin"})
		similar = len(pairs)
	})
	v["massjoin.similar_pairs"] = float64(similar)

	sample := sampleVerify(corp, t)
	if sample.pairs == 0 {
		return fmt.Errorf("no candidate pair survives the filters among the first strings: nothing to verify")
	}
	probeCore(v, c, sample, t, tr)
	probeCells(v, c, sample, t, tr)
	return probeCorpus(v, c, names, tr)
}

// probeCore times the staged batch verifier on the sample the way the
// join's reducers drive it: every probe stages its candidates, lanes fill
// across probes, and one flush ends the pass.
func probeCore(v map[string]float64, c *config, s verifySample, t float64, tr *tracer) {
	var ver core.Verifier
	var ctr core.BatchCounters
	outs := make([][]core.BatchResult, len(s.groups))
	for i, g := range s.groups {
		outs[i] = make([]core.BatchResult, len(g.ys))
	}
	passes := 1 + c.scaled(200_000, 1000)/s.pairs // about 200k verdicts
	ns := timed(tr, "core.Verifier.StageBatch+FlushBatch", 3, func() {
		ctr = core.BatchCounters{}
		for p := 0; p < passes; p++ {
			for i, g := range s.groups {
				ver.StageBatch(g.x, g.ys, t, outs[i])
			}
			ver.FlushBatch(&ctr)
		}
	}) * 1e6
	total := float64(passes * s.pairs)
	v["core.verify_ns_per_pair"] = ns / total
	v["core.lane_fill_pct"] = 0
	if ctr.Kernels > 0 {
		v["core.lane_fill_pct"] = 100 * float64(ctr.Lanes) / float64(ctr.Kernels*int64(core.BatchKernelWidth()))
	}
	v["core.batched_frac"] = float64(ctr.Batched) / total
}

// cell is one (probe token, candidate token) Levenshtein computation of
// the sample, with the SLD budget of its string pair as the cap.
type cell struct {
	a, b []rune
	cap  int
}

// probeCells times what happens inside one verification: the scalar
// bounded Levenshtein on the sample's token-pair cells, the vector kernel
// on full lane groups of the most common cell shape, and the Hungarian
// solve on the sample's cost matrices.
func probeCells(v map[string]float64, c *config, s verifySample, t float64, tr *tracer) {
	var cells []cell
	type matrix struct {
		cost   []int
		n, max int
	}
	var mats []matrix
	for _, g := range s.groups {
		for _, y := range g.ys {
			if len(mats) >= 2000 {
				break
			}
			budget := core.MaxSLDWithin(t, g.x.AggregateLen(), y.AggregateLen())
			kx, ky := g.x.Count(), y.Count()
			n := kx
			if ky > n {
				n = ky
			}
			cost := make([]int, n*n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					switch {
					case i < kx && j < ky:
						a, b := g.x.TokenRunes(i), y.TokenRunes(j)
						cells = append(cells, cell{a, b, budget})
						cost[i*n+j] = strdist.LevenshteinRunes(a, b)
					case i < kx:
						cost[i*n+j] = len(g.x.TokenRunes(i))
					case j < ky:
						cost[i*n+j] = len(y.TokenRunes(j))
					}
				}
			}
			mats = append(mats, matrix{cost, n, budget})
		}
	}

	var row []uint16
	passes := 1 + c.scaled(400_000, 1000)/len(cells)
	v["strdist.lev_ns_per_pair"] = timed(tr, "strdist.LevenshteinBoundedScratchU16", 3, func() {
		for p := 0; p < passes; p++ {
			for _, x := range cells {
				strdist.LevenshteinBoundedScratchU16(x.a, x.b, x.cap, &row)
			}
		}
	}) * 1e6 / float64(passes*len(cells))

	var scratch assignment.Scratch
	passes = 1 + c.scaled(100_000, 1000)/len(mats)
	v["assignment.hungarian_ns_per_call"] = timed(tr, "assignment.Scratch.HungarianFlat", 3, func() {
		for p := 0; p < passes; p++ {
			for _, m := range mats {
				scratch.HungarianFlat(m.cost, m.n, m.max)
			}
		}
	}) * 1e6 / float64(passes*len(mats))

	v["simd.levbatch_ns_per_lane"] = probeKernel(c, cells, tr)
}

// probeKernel fills every lane of one kernel call with cells of the most
// common (la, lb) shape of at least three runes a side and times the kernel the verifier would route that
// shape to: banded when the band is narrower than the candidate token,
// full otherwise.
func probeKernel(c *config, cells []cell, tr *tracer) float64 {
	type shape struct{ la, lb int }
	count := make(map[shape]int)
	var best shape
	for _, c := range cells {
		sh := shape{len(c.a), len(c.b)}
		if sh.la < 3 || sh.lb < 3 || sh.la > 64 || sh.lb > 64 {
			continue // initials and suffixes are not what the kernel is for
		}
		if count[sh]++; count[sh] > count[best] {
			best = sh
		}
	}
	if count[best] == 0 {
		return 0
	}
	a := make([]uint16, best.la*simd.Width)
	b := make([]uint16, best.lb*simd.Width)
	var caps, out [simd.Width]uint16
	lane, band := 0, 1
	for _, c := range cells {
		if len(c.a) != best.la || len(c.b) != best.lb {
			continue
		}
		l := lane % simd.Width
		for i, r := range c.a {
			a[i*simd.Width+l] = uint16(r)
		}
		for j, r := range c.b {
			b[j*simd.Width+l] = uint16(r)
		}
		caps[l] = uint16(c.cap)
		if c.cap > band {
			band = c.cap
		}
		if lane++; lane >= simd.Width {
			break
		}
	}
	for l := lane; l < simd.Width; l++ { // fewer cells than lanes: repeat lane 0
		for i := 0; i < best.la; i++ {
			a[i*simd.Width+l] = a[i*simd.Width]
		}
		for j := 0; j < best.lb; j++ {
			b[j*simd.Width+l] = b[j*simd.Width]
		}
		caps[l] = caps[0]
	}
	diff := best.la - best.lb
	if diff < 0 {
		diff = -diff
	}
	banded := 2*band+1 < best.lb && diff <= band
	var row []uint16
	calls := c.scaled(200_000, 1000)
	return timed(tr, "simd.LevBatch", 3, func() {
		for i := 0; i < calls; i++ {
			if banded {
				simd.LevBandedBatch(a, best.la, b, best.lb, band, &caps, &row, &out)
			} else {
				simd.LevBatch(a, best.la, b, best.lb, &caps, &row, &out)
			}
		}
	}) * 1e6 / float64(calls*simd.Width)
}

// probeCorpus times the durable corpus on the first strings of names:
// adds with every record fsynced against adds never fsynced (the
// difference is the fsync), the WAL's size, a snapshot and a reopen.
func probeCorpus(v map[string]float64, c *config, names []string, tr *tracer) error {
	m := len(names)
	if m > 400 {
		m = 400
	}
	addAll := func(dir string, opts tsjoin.CorpusOptions) (*tsjoin.Corpus, float64, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		corp, err := tsjoin.OpenCorpus(dir, opts)
		if err != nil {
			return nil, 0, err
		}
		d := make([]float64, m)
		for i, s := range names[:m] {
			t0 := time.Now()
			if _, err := corp.Add(s); err != nil {
				corp.Close()
				return nil, 0, err
			}
			t1 := time.Now()
			tr.add("corpus.Add", 0, -1, t0, t1, false)
			d[i] = ms(t1.Sub(t0))
		}
		return corp, median(d), nil
	}

	dirSync := filepath.Join(c.outDir, "probe_corpus_sync")
	dirNoSync := filepath.Join(c.outDir, "probe_corpus_nosync")
	defer os.RemoveAll(dirSync)
	defer os.RemoveAll(dirNoSync)

	loose, addLoose, err := addAll(dirNoSync, tsjoin.CorpusOptions{DisableSync: true})
	if err != nil {
		return fmt.Errorf("corpus probe: %w", err)
	}
	if err := loose.Close(); err != nil {
		return fmt.Errorf("corpus probe: %w", err)
	}
	durable, addSync, err := addAll(dirSync, tsjoin.CorpusOptions{SyncEvery: 1})
	if err != nil {
		return fmt.Errorf("corpus probe: %w", err)
	}
	v["corpus.add_ms"] = addSync
	v["corpus.fsync_ms"] = addSync - addLoose
	v["corpus.wal_bytes_per_string"] = float64(durable.Stats().WALBytes) / float64(m)
	var serr error
	v["corpus.snapshot_ms"] = timed(tr, "corpus.Snapshot", 1, func() { serr = durable.Snapshot() })
	if serr != nil {
		durable.Close()
		return fmt.Errorf("corpus probe: snapshot: %w", serr)
	}
	if err := durable.Close(); err != nil {
		return fmt.Errorf("corpus probe: %w", err)
	}
	var reopened *tsjoin.Corpus
	v["corpus.load_ms"] = timed(tr, "corpus.Open", 1, func() { reopened, err = tsjoin.OpenCorpus(dirSync, tsjoin.CorpusOptions{SyncEvery: 1}) })
	if err != nil {
		return fmt.Errorf("corpus probe: reopen: %w", err)
	}
	return reopened.Close()
}

// probeStream times the streaming matcher in-process — the engine behind
// tsjserve without HTTP, WAL or replication — on names: four fifths are
// bulk-loaded, the rest are queried and then added one at a time. The
// per-op candidate-generation and verification splits come from the
// matcher's own counters.
func probeStream(v map[string]float64, names []string, t float64, tr *tracer) error {
	m, err := tsjoin.NewConcurrentMatcher(tsjoin.ConcurrentMatcherOptions{
		MatcherOptions: tsjoin.MatcherOptions{Threshold: t}, Shards: engineProcs,
	})
	if err != nil {
		return err
	}
	defer m.Close()
	split := len(names) * 4 / 5
	m.AddAll(names[:split])
	rest := names[split:]
	if len(rest) > 2000 {
		rest = rest[:2000]
	}
	before := m.Stats()
	each := func(name string, f func(s string)) float64 {
		d := make([]float64, len(rest))
		for i, s := range rest {
			t0 := time.Now()
			f(s)
			t1 := time.Now()
			tr.add(name, 0, -1, t0, t1, false)
			d[i] = ms(t1.Sub(t0))
		}
		return median(d)
	}
	v["stream.query_ms"] = each("stream.Query", func(s string) { m.Query(s) })
	v["stream.add_ms"] = each("stream.Add", func(s string) { m.Add(s) })
	after := m.Stats()
	ops := float64(2 * len(rest))
	v["stream.candgen_ms_per_op"] = ms(after.CandGenWall-before.CandGenWall) / ops
	v["stream.verify_ms_per_op"] = ms(after.VerifyWall-before.VerifyWall) / ops
	v["stream.verified_per_op"] = float64(after.Verified-before.Verified) / ops
	return nil
}
