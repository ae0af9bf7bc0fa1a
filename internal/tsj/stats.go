package tsj

import (
	"fmt"

	"repro/internal/mapreduce"
)

// Stats reports what every stage of a TSJ join did, plus the per-job task
// costs consumed by the simulated cluster.
type Stats struct {
	Pipeline mapreduce.Pipeline

	// DroppedTokens is the number of distinct tokens above the
	// MaxTokenFreq cutoff M.
	DroppedTokens int
	// KeptTokens is the distinct token-space size after the cutoff.
	KeptTokens int

	// SharedTokenCandidates / SimilarTokenCandidates count raw candidate
	// pairs emitted by each generation strategy (before dedup).
	SharedTokenCandidates  int64
	SimilarTokenCandidates int64
	// PrefixPruned counts candidate pairs the positional filter discarded
	// at posting-list probe time: pairs whose first common prefix token's
	// reducer proved — from prefix positions and distinct-token counts
	// alone — that NSLD must exceed the threshold. Pairs the aggregate-
	// length filter rejects are never enumerated there (each string meets
	// only the window of partners LengthPrune keeps), so they are not
	// counted.
	PrefixPruned int64
	// SegPrefixPruned counts posting entries (token, string) the segment
	// prefix filter excluded from the similar-token expansion — non-prefix
	// tokens that neither entered the token-space NLD join nor expanded
	// into candidates.
	SegPrefixPruned int64
	// SimilarTokenPairs is the number of similar (non-identical) token
	// pairs found by the token-space NLD join.
	SimilarTokenPairs int64
	// DedupedCandidates counts distinct candidate pairs reaching the
	// filter/verify stage.
	DedupedCandidates int64
	// LengthPruned / LBPruned count candidates discarded by each filter.
	LengthPruned int64
	LBPruned     int64
	// Verified counts candidate pairs reaching the verification stage
	// (SLD computations started).
	Verified int64
	// BudgetPruned counts verifications the threshold-derived SLD budget
	// rejected early — before or inside the alignment — rather than by a
	// completed SLD computation.
	BudgetPruned int64
	// Results counts emitted similar pairs.
	Results int64
	// EmptyStringPairs counts pairs of token-less strings (NSLD = 0)
	// emitted by the preamble.
	EmptyStringPairs int64
	// SigPruned counts verifications the verifier's character-signature
	// pre-pass rejected before any DP cell — a subset of BudgetPruned.
	SigPruned int64
}

// String renders a multi-line summary.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"tokens kept=%d dropped=%d | candidates shared=%d similar=%d (token pairs=%d) deduped=%d | pruned prefix=%d seg-prefix=%d len=%d lb=%d budget=%d | verified=%d (sig-pruned=%d) results=%d",
		s.KeptTokens, s.DroppedTokens, s.SharedTokenCandidates, s.SimilarTokenCandidates,
		s.SimilarTokenPairs, s.DedupedCandidates, s.PrefixPruned, s.SegPrefixPruned, s.LengthPruned, s.LBPruned, s.BudgetPruned, s.Verified, s.SigPruned, s.Results)
}
