package tsjoin

import "repro/internal/stream"

// Matcher is an incremental NSLD matcher: strings are added one at a time
// and each Add returns the previously-added strings within the threshold.
// It is the online complement of the batch SelfJoin — the same
// generate-filter-verify structure maintained incrementally — and is
// exact under the default configuration.
//
// Typical use: screening account sign-ups against everything seen so far.
// It is the one-shard ConcurrentMatcher: it starts no goroutine, so it
// needs no Close.
type Matcher struct {
	m *stream.ShardedMatcher
}

// MatcherOptions configures an incremental Matcher: the NSLD threshold,
// the max-frequency cutoff M over the live strings, the aligner, the
// exact-token-matching approximation and the tokenizer.
type MatcherOptions = stream.Options

// Match is one incremental hit: the earlier string's sequence number and
// the verified distances.
type Match = stream.Match

// NewMatcher creates an empty incremental matcher.
func NewMatcher(opts MatcherOptions) (*Matcher, error) {
	m, err := stream.NewShardedMatcher(opts, 1)
	if err != nil {
		return nil, err
	}
	return &Matcher{m: m}, nil
}

// Add matches s against every previously added string, then indexes s.
// The new string's id is Len()-1 after the call. Matches are sorted by
// id. Not safe for concurrent use; see ConcurrentMatcher.
func (m *Matcher) Add(s string) []Match {
	_, matches := m.m.Add(s)
	return matches
}

// Query matches s against every previously added string without indexing
// it. Not safe for concurrent use; see ConcurrentMatcher.
func (m *Matcher) Query(s string) []Match { return m.m.Query(s) }

// Len returns the number of indexed strings.
func (m *Matcher) Len() int { return m.m.Len() }

// SequentialMatcherStats is a snapshot of a Matcher's verification
// counters: the ConcurrentMatcher's MatcherStats at one shard.
type SequentialMatcherStats = MatcherStats

// Stats snapshots the matcher's verification counters (candidates
// verified, rejections the threshold-derived SLD budget short-circuited).
func (m *Matcher) Stats() SequentialMatcherStats { return m.m.Stats() }
