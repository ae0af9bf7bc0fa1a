// Package stream provides an incremental NSLD matcher: tokenized strings
// arrive one at a time (account sign-ups, record inserts) and each
// arrival is matched against everything seen so far before being indexed
// itself. It is the online complement of the batch TSJ self-join — the
// same generate-filter-verify structure, maintained incrementally:
//
//   - a shared-token inverted index (token -> string ids) generates
//     candidates for the exact-token path;
//   - a Pass-Join style segment index over the token space generates
//     similar-token candidates (Theorem 3 carries the NSLD threshold down
//     to token NLD, exactly as in the batch join);
//   - candidates pass the Sec. III-E filters (core.FilterPair) and are
//     verified with exact or greedy SLD under the threshold's budget.
//
// Both indexes are probed with the arriving string's prefix only
// (markPrefix). The prefix filters and the budget are lossless and not
// options.
//
// The matcher is exact under fuzzy matching + Hungarian alignment with
// unlimited token frequency: Add(i) returns precisely the earlier strings
// within the threshold of string i, which the tests check against the
// naive all-pairs join in internal/nsldtest; in every configuration it
// returns exactly nsldtest.Cutoff's stream rule over the live strings.
//
// There is one implementation, ShardedMatcher (sharded.go). It reads one
// token space, a token.Corpus whose frequencies count the live strings:
// in memory its own, into which it interns every string; attached to a
// durable corpus the corpus's own, into which the corpus installs every
// string once while the matcher matches and indexes it
// (NewShardedFromCorpus). It partitions the index (tokenIndex in
// index.go) by token id across N shards, and serves concurrent Add/Query
// traffic through a worker pool under one read/write lock. One routine,
// index, inserts into the shards for a warm load, a shipped batch and an
// add alike. At one shard it runs every job inline on the caller's
// goroutine.
package stream

import (
	"errors"

	"repro/internal/token"
)

// Options configures the matcher.
type Options struct {
	// Threshold is the NSLD threshold T in [0, 1).
	Threshold float64
	// MaxTokenFreq is M: tokens held by more than M live strings stop
	// generating candidates (0 = unlimited). A deleted string stops
	// counting at once. Matching remains exact for pairs that also share
	// a rarer token or a similar token.
	MaxTokenFreq int
	// Greedy switches verification to greedy-token-aligning (faster,
	// recall may drop, never false positives).
	Greedy bool
	// ExactTokensOnly disables the similar-token path (the
	// exact-token-matching approximation).
	ExactTokensOnly bool
	// Tokenizer overrides the default whitespace+punctuation tokenizer.
	Tokenizer token.Tokenizer
}

// validate checks the threshold and fills in the default tokenizer.
func (opt *Options) validate() error {
	if !(opt.Threshold >= 0 && opt.Threshold < 1) { // also rejects NaN
		return errors.New("stream: threshold must be in [0, 1)")
	}
	if opt.Tokenizer == nil {
		opt.Tokenizer = token.WhitespaceAndPunct
	}
	return nil
}

// Match is one hit returned by Add.
type Match struct {
	// ID is the previously added string's sequence number.
	ID int
	// SLD/NSLD are the verified distances.
	SLD  int
	NSLD float64
}
