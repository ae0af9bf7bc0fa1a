package stream

// Segment-probe benchmarks: the similar-token candidate-generation path
// in isolation — steady-state probes of a fully built index behind the
// segment prefix filter. CI runs these with
// -benchtime=1x as a smoke test; -benchmem documents the 0 allocs/op
// steady state of the fingerprinted probe loop.

import (
	"fmt"
	"testing"

	"repro/internal/namegen"
)

// segmentProbeBench builds a one-shard matcher over the bench corpus and
// pre-computes marked probes for a sample of its names, so the benchmark
// loop exercises exactly the candidates() probe path (exact lookups +
// segment probing) with warm per-worker scratch.
func segmentProbeBench(b *testing.B, th float64) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 2000})
	m, err := NewShardedMatcher(Options{Threshold: th}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for _, n := range names {
		m.Add(n)
	}
	ix, sc := m.shards[0], newProbeScratch(th)
	probes := make([][]probeToken, 0, 64)
	for i := 0; i < 64; i++ {
		probes = append(probes, markedProbe(m, m.opt.Tokenizer(names[(i*31)%len(names)])))
	}
	var pc probeCounters
	var emitted int64
	emit := func(int32) { emitted++ }
	// Warm the scratch (visited sizing, plan memo, hash arrays).
	for _, p := range probes {
		ix.candidates(m.tc, p, sc, &pc, emit)
	}
	pc, emitted = probeCounters{}, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.candidates(m.tc, probes[i%len(probes)], sc, &pc, emit)
	}
	b.ReportMetric(float64(pc.segKeysProbed)/float64(b.N), "seg-keys/op")
	b.ReportMetric(float64(pc.segTokensChecked)/float64(b.N), "seg-checked/op")
	b.ReportMetric(float64(emitted)/float64(b.N), "emitted/op")
}

// BenchmarkSegmentProbePrefix measures the candidate probe behind the
// segment prefix filter. The acceptance contract: 0 allocs/op at steady
// state.
func BenchmarkSegmentProbePrefix(b *testing.B) {
	for _, th := range []float64{0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("T=%.2f", th), func(b *testing.B) {
			segmentProbeBench(b, th)
		})
	}
}
