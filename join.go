package tsjoin

import (
	"math"

	"repro/internal/token"
	"repro/internal/tsj"
)

// Join performs the bipartite NSLD join of the paper's problem statement
// (Sec. II-B): it returns every pair (A indexes r, B indexes p) with
// NSLD(r[A], p[B]) <= opts.Threshold. Same guarantees as SelfJoin: exact
// under the default fuzzy/Hungarian/unlimited-M configuration, and every
// approximation only loses recall.
func Join(r, p []string, opts Options) ([]Pair, error) {
	pairs, _, err := JoinStats(r, p, opts)
	return pairs, err
}

// JoinStats is Join plus the pipeline statistics.
func JoinStats(r, p []string, opts Options) ([]Pair, *Stats, error) {
	tok := opts.Tokenizer
	if tok == nil {
		tok = token.WhitespaceAndPunct
	}
	combined := make([]string, 0, len(r)+len(p))
	combined = append(combined, r...)
	combined = append(combined, p...)
	c := token.BuildCorpus(combined, tok)
	defer c.Release()
	results, st, err := tsj.Join(c, len(r), opts.tsj())
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]Pair, len(results))
	for i, res := range results {
		pairs[i] = Pair{A: int(res.A), B: int(res.B) - len(r), SLD: res.SLD, NSLD: res.NSLD}
	}
	return pairs, st, nil
}

// Similarity conversion schemes λ from Sec. II-B: the join can be
// expressed in terms of similarity by finding all pairs whose similarity
// is at least λ(T).

// SimLinear is λ(T) = 1 - T.
func SimLinear(d float64) float64 { return 1 - d }

// SimReciprocal is λ(T) = 1 / (1 + T).
func SimReciprocal(d float64) float64 { return 1 / (1 + d) }

// SimExponential is λ(T) = e^(-T).
func SimExponential(d float64) float64 { return math.Exp(-d) }
