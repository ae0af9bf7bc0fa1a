package stream

import (
	"fmt"
	"testing"

	"repro/internal/namegen"
)

// TestBoundedEquivalenceStream: at one shard, the bounded verifier's
// match sets equal the oracle's for both aligners, and BudgetPruned is
// populated and inside Verified.
func TestBoundedEquivalenceStream(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 41, NumNames: 220})
	for _, greedy := range []bool{false, true} {
		for _, th := range []float64{0.15, 0.3} {
			label := fmt.Sprintf("t=%.2f greedy=%v", th, greedy)
			got, st := streamAll(t, names, Options{Threshold: th, Greedy: greedy}, 1)
			checkStreams(t, label, oracleStream(names, th, greedy), got)
			if st.BudgetPruned == 0 || st.BudgetPruned > st.Verified {
				t.Fatalf("%s: BudgetPruned=%d out of range (Verified=%d)",
					label, st.BudgetPruned, st.Verified)
			}
		}
	}
}

// TestBoundedEquivalenceSharded: under bounded verification the matcher
// equals the oracle at several shard counts, and its stats report the
// budget's work.
func TestBoundedEquivalenceSharded(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 42, NumNames: 200})
	const th = 0.2
	want := oracleStream(names, th, false)
	for _, shards := range []int{1, 3, 8} {
		got, st := streamAll(t, names, Options{Threshold: th}, shards)
		checkStreams(t, fmt.Sprintf("shards=%d", shards), want, got)
		if st.BudgetPruned == 0 || st.BudgetPruned > st.Verified {
			t.Fatalf("shards=%d: BudgetPruned=%d out of range (Verified=%d)",
				shards, st.BudgetPruned, st.Verified)
		}
	}
}
