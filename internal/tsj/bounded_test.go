package tsj

import (
	"fmt"
	"testing"

	"repro/internal/namegen"
	"repro/internal/token"
)

// TestBoundedEquivalenceSelfJoin: the batch self-join, verifying under
// the threshold-derived SLD budget, returns exactly the naive join's
// pairs at several thresholds under both aligners, and the budget
// rejects some verifications early.
func TestBoundedEquivalenceSelfJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 21, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, th := range []float64{0.1, 0.25, 0.4} {
		for _, al := range []Aligning{HungarianAligning, GreedyAligning} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.Aligning = al
			label := fmt.Sprintf("t=%.2f %v", th, al)
			_, st := joinOracle(t, label, c, -1, opts)
			if st.BudgetPruned == 0 {
				t.Fatalf("%s: BudgetPruned not populated (verified=%d)", label, st.Verified)
			}
		}
	}
}

// TestBoundedEquivalenceBipartiteJoin is the bipartite counterpart.
func TestBoundedEquivalenceBipartiteJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 22, NumNames: 240})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	boundary := 120
	for _, th := range []float64{0.15, 0.3} {
		opts := DefaultOptions()
		opts.Threshold = th
		label := fmt.Sprintf("t=%.2f", th)
		_, st := joinOracle(t, label, c, boundary, opts)
		if st.BudgetPruned == 0 {
			t.Fatalf("%s: BudgetPruned not populated", label)
		}
	}
}

// TestBudgetPrunedAccounting: budget-pruned pairs stay inside the
// Verified count (they reached verification), and the dedup arithmetic
// still balances.
func TestBudgetPrunedAccounting(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 23, NumNames: 250})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	opts := DefaultOptions()
	opts.Threshold = 0.2

	_, st, err := SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetPruned == 0 || st.BudgetPruned > st.Verified {
		t.Fatalf("BudgetPruned=%d out of range (Verified=%d)", st.BudgetPruned, st.Verified)
	}
	if st.DedupedCandidates != st.LengthPruned+st.LBPruned+st.Verified {
		t.Fatalf("dedup arithmetic broken: %d != %d+%d+%d",
			st.DedupedCandidates, st.LengthPruned, st.LBPruned, st.Verified)
	}
}
