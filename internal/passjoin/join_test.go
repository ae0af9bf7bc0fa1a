package passjoin_test

import (
	"math/rand"
	"testing"

	"repro/internal/massjoin"
	"repro/internal/strdist"
)

// The joins below run PASS-JOIN as massjoin distributes it, over this
// package's partition and substring windows, and require the exact NLD join
// under both windows.

// corpusWithNearDuplicates builds a random corpus seeded with clusters of
// slightly-edited strings so joins have real matches.
func corpusWithNearDuplicates(rng *rand.Rand, n int) [][]rune {
	var out [][]rune
	for len(out) < n {
		base := randStr(rng, 3, 10)
		out = append(out, base)
		for k := 0; k < rng.Intn(3) && len(out) < n; k++ {
			c := append([]rune(nil), base...)
			switch rng.Intn(3) {
			case 0:
				c[rng.Intn(len(c))] = rune('a' + rng.Intn(4))
			case 1:
				p := rng.Intn(len(c) + 1)
				c = append(c[:p], append([]rune{rune('a' + rng.Intn(4))}, c[p:]...)...)
			case 2:
				if len(c) > 1 {
					p := rng.Intn(len(c))
					c = append(c[:p], c[p+1:]...)
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// bruteJoinNLD is the quadratic NLD join of r against p (p == nil: the
// self-join of r), keyed by (A, B) with A < B for the self-join.
func bruteJoinNLD(r, p [][]rune, t float64) map[[2]int]int {
	self := p == nil
	if self {
		p = r
	}
	want := make(map[[2]int]int)
	for i := range r {
		for j := range p {
			if self && j <= i {
				continue
			}
			d := strdist.LevenshteinRunes(r[i], p[j])
			if strdist.WithinNLD(d, len(r[i]), len(p[j]), t) {
				want[[2]int{i, j}] = d
			}
		}
	}
	return want
}

// checkSelfJoin runs the self-join under both windows and compares it with
// brute force, pair by pair and distance by distance.
func checkSelfJoin(t *testing.T, strs [][]rune, threshold float64) {
	t.Helper()
	want := bruteJoinNLD(strs, nil, threshold)
	for _, mm := range []bool{true, false} {
		got, _ := massjoin.SelfJoinNLD(strs, threshold, massjoin.Config{MultiMatchAware: mm})
		gotSet := make(map[[2]int]int, len(got))
		for _, p := range got {
			k := [2]int{min(p.A, p.B), max(p.A, p.B)}
			if _, dup := gotSet[k]; dup {
				t.Fatalf("T=%v mm=%v: duplicate pair %v", threshold, mm, p)
			}
			gotSet[k] = p.LD
		}
		if len(gotSet) != len(want) {
			t.Fatalf("T=%v mm=%v: got %d pairs, want %d", threshold, mm, len(gotSet), len(want))
		}
		for k, d := range want {
			if gd, ok := gotSet[k]; !ok || gd != d {
				t.Fatalf("T=%v mm=%v: pair %v: got (%d,%v), want %d", threshold, mm, k, gd, ok, d)
			}
		}
	}
}

func TestSelfJoinNLDMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, threshold := range []float64{0.025, 0.1, 0.225, 0.35} {
		for iter := 0; iter < 6; iter++ {
			checkSelfJoin(t, corpusWithNearDuplicates(rng, 60), threshold)
		}
	}
}

func TestJoinNLDBipartiteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, threshold := range []float64{0.1, 0.25} {
		for iter := 0; iter < 5; iter++ {
			r := corpusWithNearDuplicates(rng, 40)
			p := corpusWithNearDuplicates(rng, 40)
			want := bruteJoinNLD(r, p, threshold)
			for _, mm := range []bool{true, false} {
				got, _ := massjoin.JoinNLD(r, p, threshold, massjoin.Config{MultiMatchAware: mm})
				if len(got) != len(want) {
					t.Fatalf("T=%v mm=%v: got %d pairs, want %d", threshold, mm, len(got), len(want))
				}
				for _, pr := range got {
					if d, ok := want[[2]int{pr.A, pr.B}]; !ok || d != pr.LD {
						t.Fatalf("T=%v mm=%v: wrong pair %+v", threshold, mm, pr)
					}
				}
			}
		}
	}
}

func TestSelfJoinNLDIdenticalStrings(t *testing.T) {
	strs := [][]rune{[]rune("anna"), []rune("anna"), []rune("anna")}
	got, _ := massjoin.SelfJoinNLD(strs, 0.0, massjoin.DefaultConfig())
	if len(got) != 3 {
		t.Fatalf("three identical strings must yield 3 pairs, got %d", len(got))
	}
	for _, p := range got {
		if p.LD != 0 {
			t.Fatalf("identical strings with LD %d", p.LD)
		}
	}
	checkSelfJoin(t, strs, 0.0)
}

func TestSelfJoinNLDEmptyAndTiny(t *testing.T) {
	if got, _ := massjoin.SelfJoinNLD(nil, 0.1, massjoin.DefaultConfig()); len(got) != 0 {
		t.Fatal("nil input must join to nothing")
	}
	if got, _ := massjoin.SelfJoinNLD([][]rune{[]rune("a")}, 0.5, massjoin.DefaultConfig()); len(got) != 0 {
		t.Fatal("single string joins to nothing")
	}
	// Large threshold with very short strings exercises tau >= len.
	checkSelfJoin(t, [][]rune{[]rune("ab"), []rune("cd"), []rune("ab")}, 0.7)
}
