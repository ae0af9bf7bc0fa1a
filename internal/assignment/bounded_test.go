package assignment

import (
	"math/rand"
	"testing"
)

// flatten copies a square matrix into row-major form.
func flatten(cost [][]int) []int {
	flat := make([]int, 0, len(cost)*len(cost))
	for _, row := range cost {
		flat = append(flat, row...)
	}
	return flat
}

// TestBoundedEquivalenceHungarian: for random matrices and every budget
// (a negative one included), HungarianFlat agrees with Hungarian whenever the optimum is within
// budget — same total — and correctly reports exceeded otherwise.
func TestBoundedEquivalenceHungarian(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s Scratch
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(7)
		cost := randMatrix(r, n, 12)
		_, want := Hungarian(cost)
		for max := -1; max <= want+3; max++ {
			got, ok, _ := s.HungarianFlat(flatten(cost), n, max)
			if want <= max {
				if !ok || got != want {
					t.Fatalf("n=%d max=%d: got (%d,%v), want (%d,true)", n, max, got, ok, want)
				}
			} else if ok || got <= max {
				t.Fatalf("n=%d max=%d want=%d: got (%d,%v), want exceeded with bound > max",
					n, max, want, got, ok)
			}
		}
	}
}

// TestBoundedEquivalenceGreedy is the greedy counterpart: the bound
// applies to the greedy total (tie-broken identically), so GreedyFlat
// accepts exactly the matrices unbounded greedy totals within budget.
func TestBoundedEquivalenceGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var s Scratch
	for iter := 0; iter < 300; iter++ {
		n := 1 + r.Intn(7)
		cost := randMatrix(r, n, 12)
		_, want := Greedy(cost)
		for max := -1; max <= want+3; max++ {
			got, ok, _ := s.GreedyFlat(flatten(cost), n, max)
			if want <= max {
				if !ok || got != want {
					t.Fatalf("n=%d max=%d: got (%d,%v), want (%d,true)", n, max, got, ok, want)
				}
			} else if ok || got <= max {
				t.Fatalf("n=%d max=%d want=%d: got (%d,%v), want exceeded with bound > max",
					n, max, want, got, ok)
			}
		}
	}
}

// TestScratchReuseAcrossSizes drives one Scratch through interleaved
// solve sizes to prove the grown arrays are reset correctly between
// calls.
func TestScratchReuseAcrossSizes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var s Scratch
	for iter := 0; iter < 200; iter++ {
		n := 1 + r.Intn(9)
		cost := randMatrix(r, n, 12)
		flat := flatten(cost)
		unbound := 0 // no matching costs more than every cell together
		for _, c := range flat {
			unbound += c
		}
		_, want := Hungarian(cost)
		got, ok, _ := s.HungarianFlat(flat, n, unbound)
		if !ok || got != want {
			t.Fatalf("iter=%d n=%d: HungarianFlat got (%d,%v), want (%d,true)", iter, n, got, ok, want)
		}
		_, wantG := Greedy(cost)
		gotG, okG, _ := s.GreedyFlat(flat, n, unbound)
		if !okG || gotG != wantG {
			t.Fatalf("iter=%d n=%d: GreedyFlat got (%d,%v), want (%d,true)", iter, n, gotG, okG, wantG)
		}
	}
}
