package tsjoin

// Candidate-generation benchmarks: the batch join's candidate stream
// (candidate count and candidate-generation wall time, reported as
// custom metrics) and the sharded matcher's query path, both behind the
// prefix filters. CI runs these with -benchtime=1x as a smoke test; real
// measurements come from longer -benchtime runs.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/namegen"
	"repro/internal/tsj"
)

// benchmarkCandidates runs the batch self-join at the paper's default
// threshold and reports the raw candidate stream and the wall time of
// candidate generation.
func benchmarkCandidates(b *testing.B) {
	c := benchCorpus(1500)
	opts := tsj.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	var cands, prefixPruned, genMs, verifyMs float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_, st, err := tsj.SelfJoin(c, opts)
		wall := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		cands += float64(st.SharedTokenCandidates + st.SimilarTokenCandidates)
		prefixPruned += float64(st.PrefixPruned)
		// Candidate generation is the join's wall minus the reduce phase
		// of the fused dedup+verify job, the filter+verify compute. The
		// generation jobs overlap, so their walls do not add up to it.
		verify := st.Pipeline.ReduceWallOf("dedup-verify")
		genMs += float64((wall - verify).Microseconds()) / 1000
		verifyMs += float64(verify.Microseconds()) / 1000
	}
	n := float64(b.N)
	b.ReportMetric(cands/n, "candidates/op")
	b.ReportMetric(prefixPruned/n, "prefix-pruned/op")
	b.ReportMetric(genMs/n, "candgen-ms/op")
	b.ReportMetric(verifyMs/n, "verify-ms/op")
}

// BenchmarkCandidatesPrefix measures candidate generation behind the
// threshold-aware prefix filter.
func BenchmarkCandidatesPrefix(b *testing.B) { benchmarkCandidates(b) }

// BenchmarkShardedQueryPrefix measures concurrent Query throughput on the
// sharded matcher; the prefix-pruned metric shows how many posting
// entries the prefix filter skipped per query.
func BenchmarkShardedQueryPrefix(b *testing.B) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 2000})
	m, err := NewConcurrentMatcher(ConcurrentMatcherOptions{
		MatcherOptions: MatcherOptions{Threshold: 0.1},
		Shards:         4,
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
	b.ReportMetric(float64(m.Stats().PrefixPruned)/float64(b.N), "prefix-pruned/op")
}
