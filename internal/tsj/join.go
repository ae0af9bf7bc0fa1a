package tsj

import (
	"errors"

	"repro/internal/token"
)

// SelfJoin performs the NSLD self-join of a corpus: it returns every
// unordered pair (A < B) of tokenized strings with NSLD <= opts.Threshold
// that the configured strategies discover, plus full pipeline statistics.
//
// With FuzzyTokenMatching, Hungarian alignment and unlimited MaxTokenFreq
// the join is exact (Theorem 3 guarantees candidate completeness; the
// filters are lossless). The approximations only ever lose recall —
// precision is always 1.0 because every emitted pair was verified.
func SelfJoin(c *token.Corpus, opts Options) ([]Result, *Stats, error) {
	return run(&source{c: c, split: -1}, opts)
}

// Join performs the bipartite NSLD join of the paper's problem statement
// (Sec. II-B): given R and P as one combined corpus whose first boundary
// strings are R and the rest are P, it returns every pair
// (A ∈ [0, boundary), B ∈ [boundary, n)) with NSLD <= opts.Threshold.
// Result.B is reported relative to the combined corpus (subtract boundary
// for a P-relative index).
//
// The pipeline is the self-join's with cross-side candidate enumeration:
// shared-token reducers pair R-side with P-side postings, and the
// similar-token expansion keeps only cross-side pairs. The self-join
// symmetry optimization (Sec. III-G.1) does not apply; the token-space
// NLD join runs bipartite over the two sides' token spaces.
func Join(combined *token.Corpus, boundary int, opts Options) ([]Result, *Stats, error) {
	if boundary < 0 || boundary > combined.NumStrings() {
		return nil, nil, errors.New("tsj: boundary out of range")
	}
	return run(&source{c: combined, split: boundary}, opts)
}
