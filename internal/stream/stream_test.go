package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/namegen"
	"repro/internal/token"
)

func TestMatcherExactAgainstBruteForce(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 31, NumNames: 250})
	const threshold = 0.15
	got, st := streamAll(t, names, Options{Threshold: threshold}, 1)
	checkStreams(t, "one shard", oracleStream(names, threshold, false), got)
	if st.Strings != len(names) {
		t.Fatalf("Strings = %d, want %d", st.Strings, len(names))
	}
}

func TestMatcherCatchesAdversarialEdits(t *testing.T) {
	m := newMatcher(t, Options{Threshold: 0.12}, 1)
	add := func(s string) []Match { _, ms := m.Add(s); return ms }
	if got := add("barak obama"); len(got) != 0 {
		t.Fatalf("first add must match nothing: %v", got)
	}
	// Token edit, no shared token with the original surname.
	if got := add("barak obamma"); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("edited name must match the original: %v", got)
	}
	// Fully edited: every token changed by one character. It matches the
	// singly-edited variant (SLD 1, NSLD 2/24) but not the original
	// (SLD 2, NSLD 4/24 ≈ 0.167 > 0.12) — no token is shared with either,
	// so only the similar-token path can find it.
	if got := add("barrak obamma"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("doubly edited name must match the close variant: %v", got)
	}
	if got := add("john smith"); len(got) != 0 {
		t.Fatalf("unrelated name must match nothing: %v", got)
	}
}

func TestMatcherExactTokensOnlyIsSubset(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 32, NumNames: 200})
	full, _ := streamAll(t, names, Options{Threshold: 0.15}, 1)
	cheap, _ := streamAll(t, names, Options{Threshold: 0.15, ExactTokensOnly: true}, 1)
	for i, n := range names {
		fset := make(map[int]bool, len(full[i]))
		for _, g := range full[i] {
			fset[g.ID] = true
		}
		for _, g := range cheap[i] {
			if !fset[g.ID] {
				t.Fatalf("exact-tokens-only invented match %+v for %q", g, n)
			}
		}
	}
}

func TestMatcherGreedyNeverFalsePositive(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 33, NumNames: 200})
	const threshold = 0.2
	m := newMatcher(t, Options{Threshold: threshold, Greedy: true}, 1)
	tok := token.WhitespaceAndPunct
	for i, n := range names {
		_, got := m.Add(n)
		for _, g := range got {
			ti, tj := tok(names[i]), tok(names[g.ID])
			exact := core.SLD(ti, tj)
			if !core.WithinNSLD(exact, ti.AggregateLen(), tj.AggregateLen(), threshold) {
				t.Fatalf("greedy matcher emitted false positive %q ~ %q", n, names[g.ID])
			}
		}
	}
}

func TestMatcherEmptyStrings(t *testing.T) {
	m := newMatcher(t, Options{Threshold: 0.1}, 1)
	add := func(s string) []Match { _, ms := m.Add(s); return ms }
	if got := add("..."); len(got) != 0 {
		t.Fatal("first empty string matches nothing")
	}
	if got := add("---"); len(got) != 1 || got[0].ID != 0 || got[0].NSLD != 0 {
		t.Fatalf("second empty string must match the first: %v", got)
	}
	if got := add("real name"); len(got) != 0 {
		t.Fatal("real name must not match empty strings")
	}
}

func TestMatcherMaxTokenFreq(t *testing.T) {
	m := newMatcher(t, Options{Threshold: 0.3, MaxTokenFreq: 2, ExactTokensOnly: true}, 1)
	m.Add("john a")
	m.Add("john b")
	m.Add("john c") // freq(john) now exceeds 2 after this add
	if _, got := m.Add("john d"); len(got) != 0 {
		t.Fatalf("hot token must stop generating candidates: %v", got)
	}
}

func TestMatcherOptionValidation(t *testing.T) {
	for _, bad := range []float64{1.0, -0.1, math.NaN()} {
		if _, err := NewShardedMatcher(Options{Threshold: bad}, 1); err == nil {
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
	m := newMatcher(t, Options{Threshold: 0.2}, 1)
	for _, n := range names {
		_, got := m.Add(n)
		for i := 1; i < len(got); i++ {
			if got[i].ID <= got[i-1].ID {
				t.Fatal("matches must be sorted by id")
			}
		}
	}
}
