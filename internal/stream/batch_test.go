package stream

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/namegen"
)

// checkLanes fails unless the SIMD counters light up exactly when the
// kernel is live, with a lane count coherent with the kernel count.
func checkLanes(t *testing.T, label string, st ShardedStats) {
	t.Helper()
	if !core.BatchKernelAvailable() {
		if st.BatchedPairs != 0 {
			t.Fatalf("%s: BatchedPairs=%d without a kernel", label, st.BatchedPairs)
		}
		return
	}
	if st.BatchedPairs == 0 || st.SIMDKernels == 0 {
		t.Fatalf("%s: kernel live but SIMD counters idle (%+v)", label, st)
	}
	if st.SIMDLanes < st.SIMDKernels || st.SIMDLanes > int64(core.BatchKernelWidth())*st.SIMDKernels {
		t.Fatalf("%s: lane count %d incoherent for %d kernels", label, st.SIMDLanes, st.SIMDKernels)
	}
}

// TestSIMDEquivalenceStream: at one shard, match sets equal the oracle's
// with the vectorized batch path on and off, for both aligners, the
// funnel counters agree, and the SIMD counters light up exactly when the
// kernel is live. This is the stream leg of the CI equivalence guard.
func TestSIMDEquivalenceStream(t *testing.T) {
	t.Logf("batch kernel available: %v", core.BatchKernelAvailable())
	names := namegen.Generate(namegen.Config{Seed: 43, NumNames: 220})
	for _, greedy := range []bool{false, true} {
		for _, th := range []float64{0.15, 0.3} {
			label := fmt.Sprintf("t=%.2f greedy=%v", th, greedy)
			want := oracleStream(names, th, greedy)
			scalar, sst := streamAll(t, names, Options{
				Threshold: th, Greedy: greedy, DisableSIMD: true,
			}, 1)
			batched, bst := streamAll(t, names, Options{
				Threshold: th, Greedy: greedy,
			}, 1)
			checkStreams(t, label+" scalar", want, scalar)
			checkStreams(t, label+" batched", want, batched)
			if sst.BatchedPairs != 0 || sst.SIMDKernels != 0 {
				t.Fatalf("%s: SIMD counters nonzero with DisableSIMD (%+v)", label, sst)
			}
			if bst.Verified != sst.Verified || bst.BudgetPruned != sst.BudgetPruned {
				t.Fatalf("%s: batching changed Verified/BudgetPruned (%d/%d vs %d/%d)",
					label, bst.Verified, bst.BudgetPruned, sst.Verified, sst.BudgetPruned)
			}
			checkLanes(t, label, bst)
		}
	}
}

// TestSIMDEquivalenceAddAll: batched insertion with end-of-batch
// verification (cross-probe staging, addall.go) returns the oracle's
// per-element match sets and the scalar per-element Add's funnel
// counters, at one shard and more, across thresholds tight enough to
// ride the banded kernel and loose enough to ride the full one, with
// empty strings mixed in. This is the AddAll leg of the CI equivalence
// guard.
func TestSIMDEquivalenceAddAll(t *testing.T) {
	t.Logf("batch kernel available: %v", core.BatchKernelAvailable())
	names := namegen.Generate(namegen.Config{Seed: 45, NumNames: 200})
	// Splice in token-less strings so staged batches cover the
	// empty-probe path too.
	names[17], names[101], names[102] = "...", "--", "?!"
	for _, greedy := range []bool{false, true} {
		for _, th := range []float64{0.1, 0.3} {
			want := oracleStream(names, th, greedy)
			_, sst := streamAll(t, names, Options{Threshold: th, Greedy: greedy, DisableSIMD: true}, 1)
			for _, shards := range []int{1, 4} {
				label := fmt.Sprintf("t=%.2f greedy=%v shards=%d", th, greedy, shards)
				m := newMatcher(t, Options{Threshold: th, Greedy: greedy}, shards)
				// A leading single Add, then the rest in one staged batch:
				// the batch's lanes mix candidates of many probes.
				_, lead := m.Add(names[0])
				first, rest := m.AddAll(names[1:])
				if first != 1 {
					t.Fatalf("%s: AddAll first = %d, want 1", label, first)
				}
				checkStreams(t, label, want, append([][]Match{lead}, rest...))
				st := m.Stats()
				checkLanes(t, label, st)
				if st.Verified != sst.Verified || st.BudgetPruned != sst.BudgetPruned {
					t.Fatalf("%s: funnel counters drifted (%d/%d vs %d/%d)",
						label, st.Verified, st.BudgetPruned, sst.Verified, sst.BudgetPruned)
				}
			}
		}
	}
}

// TestSIMDEquivalenceSharded: with the batch path on, the matcher equals
// the oracle at several shard counts, and its SIMD counters behave.
func TestSIMDEquivalenceSharded(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 44, NumNames: 200})
	const th = 0.2
	want := oracleStream(names, th, false)
	for _, shards := range []int{1, 3, 8} {
		label := fmt.Sprintf("shards=%d", shards)
		got, st := streamAll(t, names, Options{Threshold: th}, shards)
		checkStreams(t, label, want, got)
		checkLanes(t, label, st)
	}
}
