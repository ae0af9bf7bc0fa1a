package passjoin_test

import (
	"math/rand"
	"testing"

	"repro/internal/passjoin"
	"repro/internal/strdist"
)

func TestEvenPartition(t *testing.T) {
	cases := []struct {
		l, m int
		want []passjoin.Segment
	}{
		{10, 1, []passjoin.Segment{{0, 10}}},
		{10, 3, []passjoin.Segment{{0, 3}, {3, 3}, {6, 4}}},
		{7, 4, []passjoin.Segment{{0, 1}, {1, 2}, {3, 2}, {5, 2}}},
		{3, 5, []passjoin.Segment{{0, 0}, {0, 0}, {0, 1}, {1, 1}, {2, 1}}},
		{0, 2, []passjoin.Segment{{0, 0}, {0, 0}}},
	}
	for _, c := range cases {
		got := passjoin.EvenPartition(c.l, c.m)
		if len(got) != len(c.want) {
			t.Fatalf("EvenPartition(%d,%d) = %v, want %v", c.l, c.m, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("EvenPartition(%d,%d)[%d] = %v, want %v", c.l, c.m, i, got[i], c.want[i])
			}
		}
	}
	// Invariants: segments tile [0, l); lengths differ by at most 1.
	for l := 0; l <= 25; l++ {
		for m := 1; m <= 8; m++ {
			segs := passjoin.EvenPartition(l, m)
			pos, minL, maxL := 0, 1<<30, 0
			for _, sg := range segs {
				if sg.Start != pos {
					t.Fatalf("gap in partition l=%d m=%d: %v", l, m, segs)
				}
				pos += sg.Len
				if sg.Len < minL {
					minL = sg.Len
				}
				if sg.Len > maxL {
					maxL = sg.Len
				}
			}
			if pos != l {
				t.Fatalf("partition does not cover string: l=%d m=%d %v", l, m, segs)
			}
			if maxL-minL > 1 {
				t.Fatalf("not even: l=%d m=%d %v", l, m, segs)
			}
		}
	}
}

// TestLemma7Pigeonhole: if LD(x,y) <= U, some segment of x (partitioned
// into U+1 segments) is a substring of y, found within the selection
// window.
func TestLemma7Pigeonhole(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, multiMatch := range []bool{true, false} {
		for iter := 0; iter < 4000; iter++ {
			x := randStr(rng, 1, 12)
			y := randStr(rng, 1, 12)
			d := strdist.LevenshteinRunes(x, y)
			for _, tau := range []int{d, d + 1, d + 3} {
				segs := passjoin.EvenPartition(len(x), tau+1)
				found := false
				for i, sg := range segs {
					lo, hi := passjoin.SubstringWindow(len(x), len(y), tau, i, sg, multiMatch)
					for q := lo; q <= hi && !found; q++ {
						if string(y[q:q+sg.Len]) == string(x[sg.Start:sg.Start+sg.Len]) {
							found = true
						}
					}
					if found {
						break
					}
				}
				if !found {
					t.Fatalf("Lemma 7 window (multiMatch=%v) missed pair %q/%q LD=%d tau=%d",
						multiMatch, string(x), string(y), d, tau)
				}
			}
		}
	}
}

func randStr(rng *rand.Rand, minLen, maxLen int) []rune {
	n := minLen + rng.Intn(maxLen-minLen+1)
	s := make([]rune, n)
	for i := range s {
		s[i] = rune('a' + rng.Intn(4))
	}
	return s
}

// TestMultiMatchAwareGeneratesFewerCandidates: for every segment, the
// multi-match-aware window (Lemma 4) lies inside the shift window, so a
// probe under it enumerates no more substrings. |q-p| <= i and
// |q-p-Δ| <= tau-i sum to the shift condition |u| + |Δ-u| <= tau.
func TestMultiMatchAwareGeneratesFewerCandidates(t *testing.T) {
	tighter := 0
	for ls := 0; ls <= 20; ls++ {
		for lr := 0; lr <= 20; lr++ {
			for tau := 0; tau <= 6; tau++ {
				for i, sg := range passjoin.EvenPartition(ls, tau+1) {
					mlo, mhi := passjoin.SubstringWindow(ls, lr, tau, i, sg, true)
					slo, shi := passjoin.SubstringWindow(ls, lr, tau, i, sg, false)
					if mlo > mhi {
						if slo <= shi {
							tighter++
						}
						continue
					}
					if mlo < slo || mhi > shi {
						t.Fatalf("ls=%d lr=%d tau=%d seg %d: multi-match window [%d,%d] outside shift window [%d,%d]",
							ls, lr, tau, i, mlo, mhi, slo, shi)
					}
					if mhi-mlo < shi-slo {
						tighter++
					}
				}
			}
		}
	}
	if tighter == 0 {
		t.Fatal("the multi-match window is never narrower than the shift window")
	}
}
