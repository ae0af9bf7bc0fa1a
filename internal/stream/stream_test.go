package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/namegen"
	"repro/internal/token"
)

// bruteMatches computes the expected matches of names[i] against
// names[:i].
func bruteMatches(names []string, i int, t float64) map[int]int {
	tok := token.WhitespaceAndPunct
	want := make(map[int]int)
	ti := tok(names[i])
	for j := 0; j < i; j++ {
		tj := tok(names[j])
		sld := core.SLD(ti, tj)
		if core.WithinNSLD(sld, ti.AggregateLen(), tj.AggregateLen(), t) {
			want[j] = sld
		}
	}
	return want
}

func TestMatcherExactAgainstBruteForce(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 31, NumNames: 250})
	const threshold = 0.15
	m, err := NewMatcher(Options{Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		got := m.Add(n)
		want := bruteMatches(names, i, threshold)
		if len(got) != len(want) {
			t.Fatalf("name %d %q: got %d matches, want %d (%v vs %v)",
				i, n, len(got), len(want), got, want)
		}
		for _, g := range got {
			if sld, ok := want[g.ID]; !ok || sld != g.SLD {
				t.Fatalf("name %d: wrong match %+v (want SLD %d, present %v)", i, g, sld, ok)
			}
		}
	}
	if m.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(names))
	}
}

func TestMatcherCatchesAdversarialEdits(t *testing.T) {
	m, err := NewMatcher(Options{Threshold: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Add("barak obama"); len(got) != 0 {
		t.Fatalf("first add must match nothing: %v", got)
	}
	// Token edit, no shared token with the original surname.
	if got := m.Add("barak obamma"); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("edited name must match the original: %v", got)
	}
	// Fully edited: every token changed by one character. It matches the
	// singly-edited variant (SLD 1, NSLD 2/24) but not the original
	// (SLD 2, NSLD 4/24 ≈ 0.167 > 0.12) — no token is shared with either,
	// so only the similar-token path can find it.
	if got := m.Add("barrak obamma"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("doubly edited name must match the close variant: %v", got)
	}
	if got := m.Add("john smith"); len(got) != 0 {
		t.Fatalf("unrelated name must match nothing: %v", got)
	}
}

func TestMatcherExactTokensOnlyIsSubset(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 32, NumNames: 200})
	full, _ := NewMatcher(Options{Threshold: 0.15})
	cheap, _ := NewMatcher(Options{Threshold: 0.15, ExactTokensOnly: true})
	for _, n := range names {
		fm := full.Add(n)
		cm := cheap.Add(n)
		fset := make(map[int]bool, len(fm))
		for _, g := range fm {
			fset[g.ID] = true
		}
		for _, g := range cm {
			if !fset[g.ID] {
				t.Fatalf("exact-tokens-only invented match %+v for %q", g, n)
			}
		}
	}
}

func TestMatcherGreedyNeverFalsePositive(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 33, NumNames: 200})
	const threshold = 0.2
	m, _ := NewMatcher(Options{Threshold: threshold, Greedy: true})
	tok := token.WhitespaceAndPunct
	for i, n := range names {
		for _, g := range m.Add(n) {
			exact := core.SLD(tok(names[i]), tok(names[g.ID]))
			ti, tj := tok(names[i]), tok(names[g.ID])
			if !core.WithinNSLD(exact, ti.AggregateLen(), tj.AggregateLen(), threshold) {
				t.Fatalf("greedy matcher emitted false positive %q ~ %q", n, names[g.ID])
			}
		}
	}
}

func TestMatcherEmptyStrings(t *testing.T) {
	m, _ := NewMatcher(Options{Threshold: 0.1})
	if got := m.Add("..."); len(got) != 0 {
		t.Fatal("first empty string matches nothing")
	}
	if got := m.Add("---"); len(got) != 1 || got[0].ID != 0 || got[0].NSLD != 0 {
		t.Fatalf("second empty string must match the first: %v", got)
	}
	if got := m.Add("real name"); len(got) != 0 {
		t.Fatal("real name must not match empty strings")
	}
}

func TestMatcherMaxTokenFreq(t *testing.T) {
	m, _ := NewMatcher(Options{Threshold: 0.3, MaxTokenFreq: 2, ExactTokensOnly: true})
	m.Add("john a")
	m.Add("john b")
	m.Add("john c") // freq(john) now exceeds 2 after this add
	got := m.Add("john d")
	if len(got) != 0 {
		t.Fatalf("hot token must stop generating candidates: %v", got)
	}
}

func TestMatcherOptionValidation(t *testing.T) {
	for _, bad := range []float64{1.0, -0.1, math.NaN()} {
		if _, err := NewMatcher(Options{Threshold: bad}); err == nil {
			t.Fatalf("threshold %v must be rejected", bad)
		}
	}
}

func TestMatcherDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var names []string
	base := "alpha beta gamma"
	names = append(names, base)
	for i := 0; i < 20; i++ {
		r := []rune(base)
		r[rng.Intn(len(r))] = 'x'
		names = append(names, string(r))
	}
	m, _ := NewMatcher(Options{Threshold: 0.2})
	for _, n := range names {
		got := m.Add(n)
		for i := 1; i < len(got); i++ {
			if got[i].ID <= got[i-1].ID {
				t.Fatal("matches must be sorted by id")
			}
		}
	}
}
