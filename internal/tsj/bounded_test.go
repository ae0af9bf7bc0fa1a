package tsj

import (
	"reflect"
	"testing"

	"repro/internal/namegen"
	"repro/internal/token"
)

// TestBoundedEquivalenceSelfJoin: the batch self-join produces identical
// result sets with bounded verification on and off, at several
// thresholds under both aligners.
func TestBoundedEquivalenceSelfJoin(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 21, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	for _, th := range []float64{0.1, 0.25, 0.4} {
		for _, al := range []Aligning{HungarianAligning, GreedyAligning} {
			opts := DefaultOptions()
			opts.Threshold = th
			opts.Aligning = al

			opts.DisableBoundedVerify = true
			exact, _, err := SelfJoin(c, opts)
			if err != nil {
				t.Fatal(err)
			}

			opts.DisableBoundedVerify = false
			bounded, bst, err := SelfJoin(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exact, bounded) {
				t.Fatalf("t=%.2f %v: bounded results differ (%d vs %d pairs)",
					th, al, len(bounded), len(exact))
			}
			if bst.BudgetPruned == 0 {
				t.Fatalf("t=%.2f %v: BudgetPruned not populated (verified=%d)",
					th, al, bst.Verified)
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

		opts.DisableBoundedVerify = true
		exact, _, err := Join(c, boundary, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.DisableBoundedVerify = false
		bounded, bst, err := Join(c, boundary, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(exact, bounded) {
			t.Fatalf("t=%.2f: bounded bipartite results differ (%d vs %d pairs)",
				th, len(bounded), len(exact))
		}
		if bst.BudgetPruned == 0 {
			t.Fatalf("t=%.2f: BudgetPruned not populated", th)
		}
	}
}

// TestBudgetPrunedAccounting: budget-pruned pairs stay inside the
// Verified count (they reached verification), the dedup arithmetic still
// balances, and disabling bounded verification zeroes the counter.
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

	opts.DisableBoundedVerify = true
	_, st, err = SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetPruned != 0 {
		t.Fatalf("BudgetPruned=%d with bounded verification disabled", st.BudgetPruned)
	}
}
