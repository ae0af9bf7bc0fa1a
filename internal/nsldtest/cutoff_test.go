package nsldtest

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/namegen"
	"repro/internal/token"
)

func tokenizeAll(names []string) []token.TokenizedString {
	strs := make([]token.TokenizedString, len(names))
	for i, n := range names {
		strs[i] = token.WhitespaceAndPunct(n)
	}
	return strs
}

// TestCutoffUnlimitedIsExact: at M = 0 under fuzzy matching every pair
// within the threshold has a witness (Theorem 3), so the cutoff rule
// answers exactly what the exact oracle does — SelfJoin and Bipartite for
// the batch rule, Matches for the stream rule under both aligners —
// token-less strings included.
func TestCutoffUnlimitedIsExact(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 5, NumNames: 90})
	names[4], names[40], names[41] = "...", "--", "?!"
	strs := tokenizeAll(names)
	nr := len(strs) / 2
	for _, th := range []float64{0.1, 0.25, 0.4} {
		o := Cutoff{T: th}
		self, cross := SelfJoin(strs, th, false), Bipartite(strs, nr, th, false)
		if len(self) == 0 || len(cross) == 0 {
			t.Fatalf("T=%v: the exact oracle joined to nothing; pick a better corpus", th)
		}
		if got := o.Join(strs, -1); !maps.Equal(self, got) {
			t.Fatalf("T=%v: cutoff self-join %d pairs, SelfJoin %d", th, len(got), len(self))
		}
		if got := o.Join(strs, nr); !maps.Equal(cross, got) {
			t.Fatalf("T=%v: cutoff bipartite join %d pairs, Bipartite %d", th, len(got), len(cross))
		}
		for _, greedy := range []bool{false, true} {
			o.Greedy = greedy
			for i := range strs {
				want, got := Matches(strs[i], strs[:i], th, greedy), o.Matches(strs[i], strs[:i])
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("T=%v greedy=%v arrival %d: cutoff %v, exact %v", th, greedy, i, got, want)
				}
			}
		}
	}
}

// TestCutoffDropsPairAboveM: a qualifying pair whose only shared token is
// in more than M strings, and whose other tokens are far apart, has no
// witness under the batch rule — while M = 0 and a cutoff above the
// token's frequency keep it. The stream rule counts only the strings
// before the arrival, where the token is still rare, and keeps it.
func TestCutoffDropsPairAboveM(t *testing.T) {
	strs := tokenizeAll([]string{"obama x", "obama y", "obama qqqqqqq"})
	pair := [2]int{0, 1} // SLD 1, NSLD 2/13; NLD(x, y) = 2/3
	const th = 0.2
	for _, tc := range []struct {
		m     int
		exact bool
		want  bool
	}{{0, false, true}, {0, true, true}, {3, false, true}, {2, false, false}, {2, true, false}, {1, false, false}} {
		o := Cutoff{T: th, M: tc.m, Exact: tc.exact}
		if _, got := o.Join(strs, -1)[pair]; got != tc.want {
			t.Fatalf("M=%d exact=%v: pair answered %v, want %v", tc.m, tc.exact, got, tc.want)
		}
	}
	if hits := (Cutoff{T: th, M: 1}).Matches(strs[1], strs[:1]); len(hits) != 1 || hits[0].ID != 0 || hits[0].SLD != 1 {
		t.Fatalf("stream rule at M=1: %v, want the arrival to match string 0 at SLD 1", hits)
	}
}

// TestCutoffCarveOut: on the corpus of the stream's carve-out test
// (TestSegmentPrefixEquivalenceStreamMaxFreqCarveOut) the stream rule
// keeps the (x, q) pair although every token the two share is above the
// cutoff M = 1 — through the similar-token witness u ~ v alone, so
// exact-token matching loses it.
func TestCutoffCarveOut(t *testing.T) {
	const th, m = 0.06, 1
	u := "commontoken" + strings.Repeat("a", 19)
	v := "commontoken" + strings.Repeat("a", 18) + "b"
	var names []string
	for i := 0; i < 10; i++ {
		names = append(names, fmt.Sprintf("%s filler%02d", u, i))
	}
	names = append(names, "ra rb rc zfiller", "ra rb rc "+v, "ra rb rc "+u)
	x := len(names) - 2
	strs := tokenizeAll(names)
	q := len(strs) - 1
	freq := docFreq(strs[:q])
	for _, tok := range strs[q].Tokens {
		if slices.Contains(strs[x].Tokens, tok) && freq[tok] <= m {
			t.Fatalf("shared token %q has freq %d <= M=%d: the corner is not exercised", tok, freq[tok], m)
		}
	}
	has := func(hits []Hit) bool {
		return slices.ContainsFunc(hits, func(h Hit) bool { return h.ID == x })
	}
	o := Cutoff{T: th, M: m}
	if hits := o.Matches(strs[q], strs[:q]); !has(hits) {
		t.Fatalf("stream rule lost the carve-out pair: %v", hits)
	}
	o.Exact = true
	if hits := o.Matches(strs[q], strs[:q]); has(hits) {
		t.Fatalf("exact-token rule kept the carve-out pair through an above-cutoff token: %v", hits)
	}
	if !has(Matches(strs[q], strs[:q], th, false)) {
		t.Fatalf("%q and %q are not within T=%v", names[q], names[x], th)
	}
}
