package tsjoin

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Sec. V) plus ablations that time each design choice against the
// alternative it replaced.
//
// The figure benchmarks run the corresponding experiment end-to-end on a
// bench-sized workload; `go run ./cmd/tsjexp -fig all` runs them at the
// full default workload and prints each as a table.

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hmj"
	"repro/internal/massjoin"
	"repro/internal/namegen"
	"repro/internal/strdist"
	"repro/internal/token"
	"repro/internal/tsj"
)

// benchWorkload keeps each figure iteration in the tens of milliseconds
// so the full bench suite completes quickly on one machine.
func benchWorkload() experiments.Workload {
	return experiments.Workload{Seed: 3, NumNames: 600, HMJNames: 300, NumChanges: 400}
}

// benchCorpus builds the shared corpus for the non-figure benchmarks.
func benchCorpus(n int) *token.Corpus {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: n})
	return token.BuildCorpus(names, token.WhitespaceAndPunct)
}

// --- Figure benchmarks ----------------------------------------------------

// BenchmarkFig1DedupStrategies regenerates Fig. 1: the TSJ machine sweep
// under both candidate de-duplication strategies.
func BenchmarkFig1DedupStrategies(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig1(w)
	}
}

// BenchmarkFig2RuntimeVsThreshold regenerates Fig. 2: runtime across the
// T sweep for fuzzy/greedy/exact matching (shares the sweep with Fig. 4).
func BenchmarkFig2RuntimeVsThreshold(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig2(w)
	}
}

// BenchmarkFig3RuntimeVsMaxFreq regenerates Fig. 3: runtime across the M
// sweep (shares the sweep with Fig. 5).
func BenchmarkFig3RuntimeVsMaxFreq(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig3(w)
	}
}

// BenchmarkFig4RecallVsThreshold regenerates Fig. 4: discovered pairs and
// approximation recall across the T sweep.
func BenchmarkFig4RecallVsThreshold(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4(w)
	}
}

// BenchmarkFig5RecallVsMaxFreq regenerates Fig. 5: discovered pairs and
// approximation recall across the M sweep.
func BenchmarkFig5RecallVsMaxFreq(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig5(w)
	}
}

// BenchmarkFig6ROCMeasures regenerates Fig. 6: ROC/AUC of NSLD vs the
// weighted set-based fuzzy measures on labeled name changes.
func BenchmarkFig6ROCMeasures(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig6(w)
	}
}

// BenchmarkFig7TSJvsHMJ regenerates Fig. 7: TSJ vs the Hybrid Metric
// Joiner across the machine sweep.
func BenchmarkFig7TSJvsHMJ(b *testing.B) {
	w := benchWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig7(w)
	}
}

// --- Core-operation benchmarks ---------------------------------------------

func BenchmarkLevenshtein(b *testing.B) {
	x := []rune("metwally")
	y := []rune("metwalli")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		strdist.LevenshteinRunes(x, y)
	}
}

func BenchmarkNSLDExact(b *testing.B) {
	x := Tokenize("barak hussein obama jr")
	y := Tokenize("obamma boraak h jr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SLD(x, y)
	}
}

func BenchmarkSLDGreedy(b *testing.B) {
	x := Tokenize("barak hussein obama jr")
	y := Tokenize("obamma boraak h jr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SLDGreedy(x, y)
	}
}

func BenchmarkSelfJoin2k(b *testing.B) {
	c := benchCorpus(2000)
	opts := tsj.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tsj.SelfJoin(c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexNearest(b *testing.B) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 3000})
	ix := NewIndex(names)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Nearest(names[i%len(names)], 5)
	}
}

// --- Concurrent streaming benchmarks ---------------------------------------

// benchShardCounts sweeps 1, 4 and NumCPU shards (deduplicated), the
// comparison the serving-layer scaling claim is stated over.
func benchShardCounts() []int {
	var out []int
	for _, n := range []int{1, 4, runtime.NumCPU()} {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// BenchmarkShardedAdd streams a namegen corpus through a fresh
// ConcurrentMatcher per iteration; adds/s is the serving-side ingest
// throughput at each shard count.
func BenchmarkShardedAdd(b *testing.B) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 1500})
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewConcurrentMatcher(ConcurrentMatcherOptions{
					MatcherOptions: MatcherOptions{Threshold: 0.15},
					Shards:         shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				m.AddAll(names)
				m.Close()
			}
			b.ReportMetric(float64(len(names)*b.N)/b.Elapsed().Seconds(), "adds/s")
		})
	}
}

// BenchmarkShardedQuery measures concurrent read throughput: the index is
// built once, then parallel clients issue Query against it.
func BenchmarkShardedQuery(b *testing.B) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 2000})
	for _, shards := range benchShardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			m, err := NewConcurrentMatcher(ConcurrentMatcherOptions{
				MatcherOptions: MatcherOptions{Threshold: 0.15},
				Shards:         shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			m.AddAll(names)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := int(next.Add(1)) % len(names)
					m.Query(names[i])
				}
			})
		})
	}
}

// --- Ablation benchmarks ----------------------------------------------------

// BenchmarkAblationBandedLD contrasts the threshold-banded Levenshtein
// against the full dynamic program on a dissimilar pair, the verification
// fast path.
func BenchmarkAblationBandedLD(b *testing.B) {
	x := []rune("konstantinopolis")
	y := []rune("albuquerqueacres")
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			strdist.LevenshteinRunes(x, y)
		}
	})
	b.Run("banded-tau2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var row []uint16 // allocate per call, as the full leg does
			strdist.LevenshteinBoundedScratchU16(x, y, 2, &row)
		}
	})
}

// BenchmarkAblationVerify contrasts exact Hungarian verification with the
// greedy-token-aligning approximation over a whole join.
func BenchmarkAblationVerify(b *testing.B) {
	c := benchCorpus(1500)
	for _, cfg := range []struct {
		name string
		al   tsj.Aligning
	}{{"hungarian", tsj.HungarianAligning}, {"greedy", tsj.GreedyAligning}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := tsj.DefaultOptions()
			opts.Aligning = cfg.al
			for i := 0; i < b.N; i++ {
				if _, _, err := tsj.SelfJoin(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSubstringSelection contrasts Pass-Join's
// multi-match-aware substring window (Lemma 4) against the naive shift
// window, on MassJoin's token-space self-join.
func BenchmarkAblationSubstringSelection(b *testing.B) {
	c := benchCorpus(4000)
	toks := c.TokenRunes
	for _, cfg := range []struct {
		name string
		mm   bool
	}{{"multi-match-aware", true}, {"shift-window", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				massjoin.SelfJoinNLD(toks, 0.15, massjoin.Config{MultiMatchAware: cfg.mm})
			}
		})
	}
}

// BenchmarkAblationDedup contrasts the in-process cost of the two
// candidate de-duplication strategies (the simulated-cluster contrast is
// Fig. 1).
func BenchmarkAblationDedup(b *testing.B) {
	c := benchCorpus(1500)
	for _, cfg := range []struct {
		name string
		d    tsj.Dedup
	}{{"group-on-one", tsj.GroupOnOneString}, {"group-on-both", tsj.GroupOnBothStrings}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := tsj.DefaultOptions()
			opts.Dedup = cfg.d
			for i := 0; i < b.N; i++ {
				if _, _, err := tsj.SelfJoin(c, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHMJBaseline measures the HMJ baseline on its own so
// its in-process cost is visible next to BenchmarkSelfJoin2k.
func BenchmarkAblationHMJBaseline(b *testing.B) {
	c := benchCorpus(1000)
	metric := func(x, y token.TokenizedString) float64 { return core.NSLD(x, y) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hmj.SelfJoin(c.Strings, metric, 0.1, hmj.Config{Seed: 1})
	}
}
