// Package core implements the paper's primary contribution: the Setwise
// Levenshtein Distance (SLD, Definition 3) and the Normalized Setwise
// Levenshtein Distance (NSLD, Definition 4) between tokenized strings,
// together with the greedy-token-aligning approximation (Sec. III-G.5) and
// the provably-safe candidate filters of Sec. III-E.
//
// SLD(x^t, y^t) is the minimum number of character-level edit operations on
// tokens — with free AddEmptyToken/RemoveEmptyToken set-level operations —
// that transform one token multiset into the other. As Sec. III-F shows,
// this equals the minimum-weight perfect matching of the bigraph whose
// sides are the two token multisets padded with empty tokens to equal size
// and whose edge weights are token Levenshtein distances. NSLD normalizes:
//
//	NSLD(x^t, y^t) = 2*SLD / (L(x^t) + L(y^t) + SLD)
//
// NSLD is a metric (Theorem 2) in [0, 1] (Lemma 5).
//
// # Shared tokens cancel
//
// The bounded Verifier matches only what two strings do not share. Token
// LD extended to ε (LD(t, ε) = |t|) is a metric, and so is its cap
// min(LD, budget+1), since min(d, c) of a metric d is one. So if x_i = y_j,
// any optimal assignment can be changed to pair x_i with y_j at cost 0
// without getting worse: if it pairs x_i with y_a and x_b with y_j, the
// swap costs d(x_b, y_a) <= d(x_b, y_j) + d(y_j, y_a) = d(x_b, y_j) +
// d(x_i, y_a). Repeating the swap for each pair of equal tokens fixes the
// whole multiset intersection at cost 0, and what is left is the padded
// matrix of the two residues: it has the same number of ε rows and columns
// as the full one (both sides lost the same number of tokens), so the
// optimal SLD, capped or not, and with it every WithinNSLD verdict, are
// unchanged. The greedy aligner keeps its answer too. Its only zero-cost
// edges are equal-token pairs (tokens are non-empty and ε never meets ε
// in one matrix), and it takes them first, in (row, col) order: each copy
// of a token takes the first free equal copy on the other side, which is
// exactly the intersection a merge of the sorted lists cancels, first
// copies first. The residue keeps the relative order of rows, columns and
// ε padding, so greedy then picks the same remaining edges in the same
// order, for the same total. SLD and SLDGreedy below do not cancel; they
// are the independent reference the Verifier is tested against.
package core

import (
	"repro/internal/assignment"
	"repro/internal/strdist"
	"repro/internal/token"
)

// costMatrix builds the padded token bigraph of Sec. III-F: k = max(m, n)
// nodes per side, missing tokens are empty strings, and the (i, j) weight is
// LD(x^ti, y^tj). An absent token has LD equal to the other token's length.
//
// Time: O(L(x^t) * L(y^t)) as stated in the paper.
func costMatrix(x, y token.TokenizedString) [][]int {
	m, n := x.Count(), y.Count()
	k := m
	if n > k {
		k = n
	}
	cost := make([][]int, k)
	for i := 0; i < k; i++ {
		cost[i] = make([]int, k)
		for j := 0; j < k; j++ {
			switch {
			case i < m && j < n:
				cost[i][j] = strdist.LevenshteinRunes(x.TokenRunes(i), y.TokenRunes(j))
			case i < m:
				cost[i][j] = len(x.TokenRunes(i)) // delete whole token into ε
			case j < n:
				cost[i][j] = len(y.TokenRunes(j)) // grow ε into the token
			default:
				cost[i][j] = 0 // ε matched to ε
			}
		}
	}
	return cost
}

// SLD returns the exact Setwise Levenshtein Distance, solving the
// assignment problem with the Hungarian algorithm
// (O(L(x)L(y) + max(T(x),T(y))^3), Sec. III-F).
func SLD(x, y token.TokenizedString) int {
	if x.Count() == 0 {
		return y.AggregateLen()
	}
	if y.Count() == 0 {
		return x.AggregateLen()
	}
	_, total := assignment.Hungarian(costMatrix(x, y))
	return total
}

// SLDGreedy returns the greedy-token-aligning upper bound on SLD
// (Sec. III-G.5): edge weights are exact token LDs, but the matching picks
// the globally cheapest edge repeatedly instead of solving the assignment
// problem. SLDGreedy(x, y) >= SLD(x, y) always; equality holds whenever the
// greedy matching happens to be optimal. Thresholded joins on it can
// therefore only produce false negatives (precision stays 1.0, Sec. V-B.2).
func SLDGreedy(x, y token.TokenizedString) int {
	if x.Count() == 0 {
		return y.AggregateLen()
	}
	if y.Count() == 0 {
		return x.AggregateLen()
	}
	_, total := assignment.Greedy(costMatrix(x, y))
	return total
}

// NSLDFromSLD applies the Definition 4 normalization to a precomputed SLD.
func NSLDFromSLD(sld, aggLenX, aggLenY int) float64 {
	if sld == 0 {
		return 0
	}
	return 2 * float64(sld) / float64(aggLenX+aggLenY+sld)
}

// NSLD returns the exact Normalized Setwise Levenshtein Distance.
func NSLD(x, y token.TokenizedString) float64 {
	return NSLDFromSLD(SLD(x, y), x.AggregateLen(), y.AggregateLen())
}

// WithinNSLD reports whether a pair with setwise distance sld and aggregate
// lengths la, lb satisfies NSLD <= t, using the same rearranged form as
// strdist.WithinNLD so every pipeline stage agrees on boundaries:
// 2*sld <= t*(la+lb+sld).
func WithinNSLD(sld, la, lb int, t float64) bool {
	return 2*float64(sld) <= t*float64(la+lb+sld)
}
