// Package tsjoin is a scalable similarity joiner for tokenized strings —
// a from-scratch Go implementation of "Scalable Similarity Joins of
// Tokenized Strings" (Metwally & Huang, ICDE 2019).
//
// It provides:
//
//   - the Normalized Setwise Levenshtein Distance (NSLD), the paper's
//     novel metric over token multisets, together with the underlying
//     Levenshtein (LD), normalized Levenshtein (NLD) and setwise
//     Levenshtein (SLD) distances;
//   - the Tokenized-String Joiner (TSJ): a generate-filter-verify
//     framework that self-joins millions of tokenized strings under an
//     NSLD threshold, with the paper's optimizations (self-join symmetry
//     breaking, high-frequency-token cutoff, two candidate de-duplication
//     strategies) and approximations (exact-token-matching,
//     greedy-token-aligning);
//   - a K-nearest-neighbor index over NSLD (a vantage-point tree),
//     usable because NSLD is a true metric;
//   - the evaluation harness reproducing every figure of the paper
//     (internal/experiments, surfaced through cmd/tsjexp).
//
// Every filter is lossless — length, histogram, prefix and the verify
// budget — so none is an option: options choose the threshold, the
// paper's approximations and the dedup strategy.
//
// Quick start:
//
//	pairs, err := tsjoin.SelfJoin([]string{
//	    "Barak Obama", "Obamma, Boraak H.", "Burak Ubama",
//	}, tsjoin.Options{Threshold: 0.3})
//
// See the examples/ directory for complete programs.
package tsjoin

import (
	"repro/internal/core"
	"repro/internal/strdist"
	"repro/internal/token"
	"repro/internal/tsj"
)

// TokenizedString is a multiset of tokens — the unit the joiner compares.
type TokenizedString = token.TokenizedString

// Tokenizer maps a raw string to its token multiset.
type Tokenizer = token.Tokenizer

// Tokenize applies the paper's evaluation tokenizer: split on whitespace
// and punctuation, lower-case the tokens (Sec. V).
func Tokenize(s string) TokenizedString { return token.WhitespaceAndPunct(s) }

// NewTokenizedString builds a TokenizedString from explicit tokens.
func NewTokenizedString(tokens []string) TokenizedString { return token.New(tokens) }

// LD returns the Levenshtein distance between two strings (Definition 1).
func LD(a, b string) int { return strdist.Levenshtein(a, b) }

// NLD returns the Normalized Levenshtein Distance in [0, 1]
// (Definition 2): 2*LD/(|a|+|b|+LD). NLD is a metric.
func NLD(a, b string) float64 { return strdist.NLD(a, b) }

// SLD returns the Setwise Levenshtein Distance (Definition 3) between the
// token multisets of a and b under the default tokenizer: the minimum
// number of character edits, with free empty-token additions/removals,
// transforming one multiset into the other. Computed exactly via the
// Hungarian algorithm.
func SLD(a, b string) int { return core.SLD(Tokenize(a), Tokenize(b)) }

// NSLD returns the Normalized Setwise Levenshtein Distance in [0, 1]
// (Definition 4) between the token multisets of a and b under the default
// tokenizer: 2*SLD/(L(a)+L(b)+SLD). NSLD is a metric (Theorem 2).
func NSLD(a, b string) float64 { return core.NSLD(Tokenize(a), Tokenize(b)) }

// SLDTokens and NSLDTokens operate on pre-built token multisets.
func SLDTokens(x, y TokenizedString) int      { return core.SLD(x, y) }
func NSLDTokens(x, y TokenizedString) float64 { return core.NSLD(x, y) }

// SIMDAvailable returns false. The library carries no vectorized
// Levenshtein kernel: every candidate pair is verified on its own by the
// scalar bounded DP.
//
// Deprecated: there is nothing to detect; the function is kept only so
// existing callers compile.
func SIMDAvailable() bool { return false }

// Matching selects the TSJ candidate-generation strategy.
type Matching = tsj.Matching

// Aligning selects the TSJ verification alignment.
type Aligning = tsj.Aligning

// Dedup selects the TSJ candidate de-duplication strategy.
type Dedup = tsj.Dedup

const (
	// FuzzyTokenMatching (default) generates shared-token and
	// similar-token candidates; exact when MaxTokenFreq is unlimited.
	FuzzyTokenMatching = tsj.FuzzyTokenMatching
	// ExactTokenMatching uses only shared-token candidates: much faster,
	// recall may drop (Sec. III-G.4).
	ExactTokenMatching = tsj.ExactTokenMatching
	// HungarianAligning verifies with the exact SLD.
	HungarianAligning = tsj.HungarianAligning
	// GreedyAligning verifies with the greedy alignment: faster, may
	// miss borderline pairs, never emits false positives (Sec. III-G.5).
	GreedyAligning = tsj.GreedyAligning
	// GroupOnOneString / GroupOnBothStrings are the Sec. III-G.3 dedup
	// strategies; the paper recommends GroupOnOneString.
	GroupOnOneString   = tsj.GroupOnOneString
	GroupOnBothStrings = tsj.GroupOnBothStrings
)

// Options configures SelfJoin. The zero value joins at threshold 0 (exact
// duplicates); most callers set Threshold and leave the rest defaulted.
type Options struct {
	// Threshold is the NSLD threshold T in [0, 1). Pairs with
	// NSLD <= T are returned. The paper's default is 0.1.
	Threshold float64
	// MaxTokenFreq is M: tokens occurring in more than M strings are
	// ignored during candidate generation (0 = unlimited). The paper's
	// default is 1000.
	MaxTokenFreq int
	// Matching, Aligning, Dedup select the strategies; zero values are
	// the paper's recommended configuration except Aligning, which
	// defaults to the exact Hungarian alignment.
	Matching Matching
	Aligning Aligning
	Dedup    Dedup
	// Tokenizer overrides the default whitespace+punctuation tokenizer.
	Tokenizer Tokenizer
	// Parallelism caps the worker goroutines of each MapReduce job (0 =
	// GOMAXPROCS). The two candidate generators run side by side, so a
	// join may run up to twice as many.
	Parallelism int
}

// tsj maps the public options onto the pipeline's.
func (o Options) tsj() tsj.Options {
	return tsj.Options{
		Threshold:    o.Threshold,
		MaxTokenFreq: o.MaxTokenFreq,
		Matching:     o.Matching,
		Aligning:     o.Aligning,
		Dedup:        o.Dedup,
		Parallelism:  o.Parallelism,
	}
}

// Pair is one joined pair of input strings: indices into the input slice
// (A < B), the setwise distance, and its normalized form.
type Pair struct {
	A, B int
	SLD  int
	NSLD float64
}

// Stats exposes the TSJ pipeline statistics of a join.
type Stats = tsj.Stats

// SelfJoin finds every unordered pair of names whose NSLD is within
// opts.Threshold. With the default options (fuzzy matching, Hungarian
// alignment, unlimited token frequency) the result is exact.
func SelfJoin(names []string, opts Options) ([]Pair, error) {
	pairs, _, err := SelfJoinStats(names, opts)
	return pairs, err
}

// SelfJoinStats is SelfJoin plus the pipeline statistics (candidate
// counts, filter effectiveness, per-job task costs for cluster
// simulation).
func SelfJoinStats(names []string, opts Options) ([]Pair, *Stats, error) {
	tok := opts.Tokenizer
	if tok == nil {
		tok = token.WhitespaceAndPunct
	}
	c := token.BuildCorpus(names, tok)
	defer c.Release()
	results, st, err := tsj.SelfJoin(c, opts.tsj())
	if err != nil {
		return nil, nil, err
	}
	pairs := make([]Pair, len(results))
	for i, r := range results {
		pairs[i] = Pair{A: int(r.A), B: int(r.B), SLD: r.SLD, NSLD: r.NSLD}
	}
	return pairs, st, nil
}
