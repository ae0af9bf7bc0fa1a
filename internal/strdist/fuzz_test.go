package strdist

import "testing"

// clampRunes bounds a fuzz string to max runes so each execution stays
// fast; content is untouched (the U16 path must handle any rune,
// including astral-plane ones, by construction).
func clampRunes(s string, max int) []rune {
	r := []rune(s)
	if len(r) > max {
		r = r[:max]
	}
	return r
}

// FuzzLevenshteinBoundedU16 cross-checks the one banded Levenshtein DP —
// the body MassJoin's verify reducer and the verifier's token cost matrix
// run per token pair — at both row widths against the exact full-matrix
// oracle on arbitrary rune pairs and budgets: within budget the bounded
// distance must equal the exact one, over budget it must report
// (max+1, false), and the reused scratch rows must not leak state
// between calls. The checked-in seeds double as a regression corpus in
// plain `go test`; CI additionally runs a bounded `-fuzz` exploration.
func FuzzLevenshteinBoundedU16(f *testing.F) {
	f.Add("barak obama", "obama barack", uint16(3))
	f.Add("kernel", "colonel", uint16(0))
	f.Add("", "nonempty", uint16(4))
	f.Add("é✓ürich", "z\U0001F600rich", uint16(5))
	f.Add("aaaaaaaaaaaaaaaa", "ab", uint16(2))
	f.Add("mississippi", "mississippi", uint16(65535))
	f.Fuzz(func(t *testing.T, a, b string, maxSeed uint16) {
		ar := clampRunes(a, 48)
		br := clampRunes(b, 48)
		max := int(maxSeed % 96)
		if maxSeed%97 == 0 {
			max = int(maxSeed) // a budget far past any distance
		}
		exact := LevenshteinRunes(ar, br)
		var rowU []uint16
		var rowI []int
		checkBanded(t, ar, br, max, exact, &rowU, &rowI)
		// The scratch rows are reused dirty across pairs in production;
		// a second call over the same rows must agree with the first.
		checkBanded(t, ar, br, max, exact, &rowU, &rowI)
	})
}

// FuzzSigLowerBound checks the character-signature bound the verifier's
// pre-pass and MassJoin's verify reducer prune on against the exact
// oracle on arbitrary rune pairs: never above the distance, symmetric, 0
// against itself and |a| against the empty token.
func FuzzSigLowerBound(f *testing.F) {
	f.Add("barak obama", "obama barack")
	f.Add("", "nonempty")
	f.Add("aaaa", "aa")
	f.Add("a1q", "AQ\U0001F600") // characters that share a class under & 31
	f.Add("é✓ürich", "z\U0001F600rich")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkSigBound(t, clampRunes(a, 48), clampRunes(b, 48))
	})
}
