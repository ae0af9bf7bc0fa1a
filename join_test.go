package tsjoin

import (
	"math"
	"testing"
)

func TestJoinBipartiteAPI(t *testing.T) {
	watchlist := []string{"barak obama", "mary huang", "wei chen"}
	signups := []string{"burak obama", "wei chen jr", "totally new"}
	pairs, err := Join(watchlist, signups, Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[[2]int]float64)
	for _, p := range pairs {
		if p.A < 0 || p.A >= len(watchlist) || p.B < 0 || p.B >= len(signups) {
			t.Fatalf("pair indices out of range: %+v", p)
		}
		got[[2]int{p.A, p.B}] = p.NSLD
	}
	// burak obama ~ barak obama: SLD 1 over L=10+10 -> 2/21 ≈ 0.095.
	if _, ok := got[[2]int{0, 0}]; !ok {
		t.Fatalf("missing obama pair in %v", got)
	}
	// wei chen ~ wei chen jr: SLD 2 (grow "jr") over 7+9 -> 4/18 ≈ 0.22 > 0.2.
	if _, ok := got[[2]int{2, 1}]; ok {
		t.Fatal("wei chen jr should be beyond 0.2")
	}
	// Cross-check every returned pair against the direct distance.
	for k, d := range got {
		if want := NSLD(watchlist[k[0]], signups[k[1]]); math.Abs(want-d) > 1e-12 {
			t.Fatalf("pair %v distance %v, direct %v", k, d, want)
		}
	}
}

func TestJoinMatchesSelfJoinOnMirror(t *testing.T) {
	// Joining a list against itself must contain the self-join pairs plus
	// the diagonal.
	names := []string{"anna lee", "ana lee", "bob ross", "bob r0ss"}
	self, err := SelfJoin(names, Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cross, err := Join(names, names, Options{Threshold: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	crossSet := make(map[[2]int]bool)
	for _, p := range cross {
		crossSet[[2]int{p.A, p.B}] = true
	}
	for i := range names {
		if !crossSet[[2]int{i, i}] {
			t.Fatalf("diagonal pair (%d,%d) missing", i, i)
		}
	}
	for _, p := range self {
		if !crossSet[[2]int{p.A, p.B}] || !crossSet[[2]int{p.B, p.A}] {
			t.Fatalf("self-join pair %+v missing from cross join (both orientations)", p)
		}
	}
}

func TestSimilarityConversions(t *testing.T) {
	if SimLinear(0) != 1 || SimLinear(1) != 0 {
		t.Error("SimLinear endpoints wrong")
	}
	if SimReciprocal(0) != 1 || math.Abs(SimReciprocal(1)-0.5) > 1e-12 {
		t.Error("SimReciprocal endpoints wrong")
	}
	if SimExponential(0) != 1 || math.Abs(SimExponential(1)-math.Exp(-1)) > 1e-12 {
		t.Error("SimExponential endpoints wrong")
	}
	// All are strictly decreasing on [0, 1].
	for d := 0.0; d < 1.0; d += 0.1 {
		for _, f := range []func(float64) float64{SimLinear, SimReciprocal, SimExponential} {
			if f(d+0.05) >= f(d) {
				t.Fatal("conversion not strictly decreasing")
			}
		}
	}
}
