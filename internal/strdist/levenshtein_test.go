package strdist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refLevenshtein is an independent full-matrix reference implementation used
// to validate the optimized two-row and banded variants.
func refLevenshtein(a, b []rune) int {
	n, m := len(a), len(b)
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
		dp[i][0] = i
	}
	for j := 0; j <= m; j++ {
		dp[0][j] = j
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := dp[i-1][j-1] + cost
			if d := dp[i][j-1] + 1; d < best {
				best = d
			}
			if d := dp[i-1][j] + 1; d < best {
				best = d
			}
			dp[i][j] = best
		}
	}
	return dp[n][m]
}

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"Thomson", "Thompson", 1}, // paper Sec. II-C example
		{"Alex", "Alexa", 1},       // paper Sec. II-C example
		{"chan", "chank", 1},       // paper Sec. II-D example
		{"kalan", "alan", 1},       // paper Sec. II-D example
		{"gumbo", "gambol", 2},
		{"日本語", "日本", 1}, // rune-level, not byte-level
		{"héllo", "hello", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// randomRunes draws a short string over a small alphabet so that random
// pairs collide often enough to exercise interesting distances.
func randomRunes(rng *rand.Rand, maxLen int) []rune {
	n := rng.Intn(maxLen + 1)
	s := make([]rune, n)
	for i := range s {
		s[i] = rune('a' + rng.Intn(5))
	}
	return s
}

func TestLevenshteinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomRunes(rng, 12), randomRunes(rng, 12)
		want := refLevenshtein(a, b)
		if got := LevenshteinRunes(a, b); got != want {
			t.Fatalf("LevenshteinRunes(%q, %q) = %d, want %d", string(a), string(b), got, want)
		}
	}
}

func TestLevenshteinBoundedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var row []uint16
	for i := 0; i < 4000; i++ {
		a, b := randomRunes(rng, 14), randomRunes(rng, 14)
		want := refLevenshtein(a, b)
		max := rng.Intn(8) - 1 // includes -1
		got, ok := LevenshteinBoundedScratchU16(a, b, max, &row)
		if want <= max {
			if !ok || got != want {
				t.Fatalf("LevenshteinBoundedScratchU16(%q, %q, %d) = (%d,%v), want (%d,true)",
					string(a), string(b), max, got, ok, want)
			}
		} else if ok {
			t.Fatalf("LevenshteinBoundedScratchU16(%q, %q, %d) reported ok for true distance %d",
				string(a), string(b), max, want)
		}
	}
}

func TestLevenshteinBoundedZeroMax(t *testing.T) {
	var row []uint16
	if d, ok := LevenshteinBoundedScratchU16([]rune("abc"), []rune("abc"), 0, &row); !ok || d != 0 {
		t.Fatalf("equal strings with max=0: got (%d,%v)", d, ok)
	}
	if _, ok := LevenshteinBoundedScratchU16([]rune("abc"), []rune("abd"), 0, &row); ok {
		t.Fatal("distinct strings must fail max=0")
	}
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Symmetry and identity.
	symm := func(a, b string) bool {
		ra, rb := []rune(a), []rune(b)
		if LevenshteinRunes(ra, ra) != 0 {
			return false
		}
		return LevenshteinRunes(ra, rb) == LevenshteinRunes(rb, ra)
	}
	if err := quick.Check(symm, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Triangle inequality (dedicated loop; needs three values).
	for i := 0; i < 1000; i++ {
		a, b, c := randomRunes(rng, 10), randomRunes(rng, 10), randomRunes(rng, 10)
		ab := LevenshteinRunes(a, b)
		bc := LevenshteinRunes(b, c)
		ac := LevenshteinRunes(a, c)
		if ab+bc < ac {
			t.Fatalf("triangle violated: LD(%q,%q)=%d + LD(%q,%q)=%d < LD(%q,%q)=%d",
				string(a), string(b), ab, string(b), string(c), bc, string(a), string(c), ac)
		}
	}
}
