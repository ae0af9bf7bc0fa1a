package nsldtest

import (
	"repro/internal/strdist"
	"repro/internal/token"
)

// Cutoff is the naive join under a token cutoff M: it answers a pair when
// Matches does and the cutoff's candidate rule admits a token witness.
// The rule names no index, prefix or filter. At M <= 0 under fuzzy
// matching every pair within T has a witness (Theorem 3), so Join and
// Matches equal SelfJoin, Bipartite and Matches.
type Cutoff struct {
	T      float64 // NSLD threshold; a similar-token witness is within NLD T
	M      int     // tokens in more than M strings witness nothing; <= 0 = unlimited
	Exact  bool    // exact-token matching: shared-token witnesses only
	Greedy bool    // core.SLDGreedy in place of the exact core.SLD
}

// Join is the batch rule: the self-join of every pair (i, j), i < j, of
// strs when nr < 0, else its cross pairs i < nr <= j. freq counts the
// strings of strs holding a token, and a token is kept iff M <= 0 or
// freq <= M. A pair is a candidate when both strings are token-less, when
// they share a kept token, or, unless Exact, when a kept u of one and a
// kept v of the other differ within NLD T. The lower id aligns first.
func (o Cutoff) Join(strs []token.TokenizedString, nr int) map[[2]int]int {
	freq := docFreq(strs)
	out := make(map[[2]int]int)
	for i := range strs {
		lo := i + 1
		if nr >= 0 {
			if i >= nr {
				break
			}
			lo = nr
		}
		for _, h := range o.matches(strs[i], strs[lo:], freq, true) {
			out[[2]int{i, lo + h.ID}] = h.SLD
		}
	}
	return out
}

// Matches is the stream rule: the matches of x, arriving after strs,
// against strs, in ascending index into strs. Pass the strings live when
// x arrives — strs[:i] for arrival i of a stream without deletes — and
// map the indexes back to ids: a deleted string neither answers nor
// counts. freq counts the strings of strs holding a token. strs[j] is a candidate when
// both strings are token-less, when they share a token of freq <= M, or,
// unless Exact, when some token u of x, which the cutoff does not gate,
// and some v of strs[j] with freq(v) <= M differ within NLD T. x aligns
// first.
func (o Cutoff) Matches(x token.TokenizedString, strs []token.TokenizedString) []Hit {
	return o.matches(x, strs, docFreq(strs), false)
}

// matches keeps the exact matches of x against strs that have a witness
// under freq; gateX applies the cutoff to x's tokens too.
func (o Cutoff) matches(x token.TokenizedString, strs []token.TokenizedString, freq map[string]int, gateX bool) []Hit {
	kept := func(tok string) bool { return o.M <= 0 || freq[tok] <= o.M }
	var out []Hit
	for _, h := range Matches(x, strs, o.T, o.Greedy) {
		y := strs[h.ID]
		witness := x.Count() == 0 && y.Count() == 0
		for i, u := range x.Tokens {
			for k, v := range y.Tokens {
				if witness || gateX && !kept(u) || !kept(v) {
					continue
				}
				ur, vr := x.TokenRunes(i), y.TokenRunes(k)
				witness = u == v || !o.Exact &&
					strdist.WithinNLD(strdist.LevenshteinRunes(ur, vr), len(ur), len(vr), o.T)
			}
		}
		if witness {
			out = append(out, h)
		}
	}
	return out
}

// docFreq counts, per token, the strings of strs that hold it.
func docFreq(strs []token.TokenizedString) map[string]int {
	freq := make(map[string]int)
	for _, s := range strs {
		for i, tok := range s.Tokens {
			if i == 0 || tok != s.Tokens[i-1] {
				freq[tok]++
			}
		}
	}
	return freq
}
