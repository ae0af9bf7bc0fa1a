// Package tsj implements the Tokenized-String Joiner of Sec. III: a
// MapReduce generate-filter-verify framework for NSLD self-joins and joins
// of tokenized-string corpora.
//
// The pipeline is one function, run (pipeline.go), and its jobs map
// one-to-one onto the paper's stages:
//
//  1. tsj-shared-token — shared-token candidate generation (Sec. III-C)
//     over each string's prefix (internal/prefilter);
//  2. tsj-similar-token-candidates / -verify — similar-token candidate
//     generation (Sec. III-D): an NLD-join of the prefix tokens via
//     MassJoin, then a postings expansion from similar token pairs to
//     candidate string pairs (skipped entirely under the
//     exact-token-matching approximation of Sec. III-G.4). It reads only
//     the corpus and the prefix index, so it runs beside job 1; its jobs
//     and candidates are reported after job 1's;
//  3. tsj-dedup-verify-onestring / -bothstrings — de-duplication using
//     either grouping strategy of Sec. III-G.3, fused with filtering
//     (Sec. III-E: length filter and histogram distance-lower-bound
//     filter) and final verification (Sec. III-F: exact SLD by Hungarian
//     matching, or the greedy-token-aligning approximation of
//     Sec. III-G.5) under the threshold-derived SLD budget.
//
// The prefix filters and the budget are lossless and not options: the
// answer is exactly nsldtest.Cutoff's batch rule, the exact NSLD join at
// an unlimited M under fuzzy matching.
//
// The paper's token-frequency job (Sec. III-G.2) neither runs nor is
// charged, at any cutoff M: the cutoff reads the document frequencies
// every source's Corpus.Freq already holds.
//
// The four entry points differ only in the source they hand to run: the
// corpus view, a mask of tombstoned strings, and the R/P split of a
// bipartite join — the paper's join is the self-join with cross-side pair
// enumeration (Sec. II-B), so Join and JoinCorpus run the same jobs with
// Job 1's reducers and the expansion pairing R ids with P ids only.
// SelfJoin and Join run over an in-memory corpus and read the frequencies
// token.BuildCorpus counted. SelfJoinCorpus and JoinCorpus run over a
// persistent corpus's point-in-time view (a token.Corpus View) and read
// its live document frequencies; JoinCorpus grows its view with the
// probes under the corpus's read lock (corpus.View), which interns only
// their new tokens and counts them, and builds no table of its own,
// intern map included. Everything after that, the prefix index's
// rarest-first order included, is derived per join exactly as for an
// in-memory corpus.
//
// Every job reports task-cost statistics so the simulated cluster can
// reproduce the paper's scalability figures.
package tsj

import (
	"repro/internal/token"
)

// Matching selects the candidate-generation strategy.
type Matching int

const (
	// FuzzyTokenMatching generates both shared-token and similar-token
	// candidates; with unlimited M it is exact (Theorem 3).
	FuzzyTokenMatching Matching = iota
	// ExactTokenMatching generates only shared-token candidates
	// (Sec. III-G.4). Precision stays 1.0; recall may drop.
	ExactTokenMatching
)

func (m Matching) String() string {
	switch m {
	case FuzzyTokenMatching:
		return "fuzzy-token-matching"
	case ExactTokenMatching:
		return "exact-token-matching"
	}
	return "unknown"
}

// Aligning selects the verification alignment algorithm.
type Aligning int

const (
	// HungarianAligning computes the exact SLD (min-weight perfect
	// matching).
	HungarianAligning Aligning = iota
	// GreedyAligning uses the greedy-token-aligning approximation
	// (Sec. III-G.5); it can only overestimate SLD, so precision stays
	// 1.0.
	GreedyAligning
)

func (a Aligning) String() string {
	switch a {
	case HungarianAligning:
		return "hungarian"
	case GreedyAligning:
		return "greedy-token-aligning"
	}
	return "unknown"
}

// Dedup selects the candidate de-duplication strategy of Sec. III-G.3.
type Dedup int

const (
	// GroupOnOneString keys candidates by one of the two strings (chosen
	// by the hash-parity rule) and verifies all of a string's partners in
	// one reducer: few large tasks.
	GroupOnOneString Dedup = iota
	// GroupOnBothStrings keys candidates by the pair: many tiny tasks
	// with better load balancing but more worker instantiations.
	GroupOnBothStrings
)

func (d Dedup) String() string {
	switch d {
	case GroupOnOneString:
		return "grouping-on-one-string"
	case GroupOnBothStrings:
		return "grouping-on-both-strings"
	}
	return "unknown"
}

// Options configures a TSJ join. The zero value is a valid exact fuzzy
// join at threshold 0 — callers normally set at least Threshold.
type Options struct {
	// Threshold is the NSLD threshold T.
	Threshold float64
	// MaxTokenFreq is M: tokens contained in more than M strings are
	// dropped from candidate generation. <= 0 means unlimited.
	MaxTokenFreq int
	// Matching selects fuzzy (default) or exact token matching.
	Matching Matching
	// Aligning selects Hungarian (default) or greedy alignment.
	Aligning Aligning
	// Dedup selects the grouping strategy (default: one string).
	Dedup Dedup
	// MapTasks / Parallelism forward to the MapReduce engine and apply to
	// each job. The two candidate generators run side by side, so a join
	// may run up to twice Parallelism workers at once.
	MapTasks    int
	Parallelism int
}

// DefaultOptions returns the paper's default configuration: T = 0.1,
// M = 1000, fuzzy matching, Hungarian alignment, grouping-on-one-string.
func DefaultOptions() Options {
	return Options{
		Threshold:    0.1,
		MaxTokenFreq: 1000,
		Matching:     FuzzyTokenMatching,
		Aligning:     HungarianAligning,
		Dedup:        GroupOnOneString,
	}
}

// Result is one joined pair: string ids with A < B, the (possibly
// greedy-overestimated) SLD used for the decision, and its NSLD.
type Result struct {
	A, B token.StringID
	SLD  int
	NSLD float64
}
