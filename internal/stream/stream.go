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
//   - candidates pass the Sec. III-E filters and are verified with exact
//     or greedy SLD.
//
// The matcher is exact under fuzzy matching + Hungarian alignment with
// unlimited token frequency: Add(i) returns precisely the earlier strings
// within the threshold of string i.
//
// Two implementations share the index machinery (tokenIndex in index.go):
// Matcher is the single-threaded original; ShardedMatcher (sharded.go)
// partitions the index by token hash across N shards and serves
// concurrent Add/Query traffic through a persistent worker pool.
package stream

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/token"
)

// Options configures the matcher.
type Options struct {
	// Threshold is the NSLD threshold T in [0, 1).
	Threshold float64
	// MaxTokenFreq is M: tokens seen in more than M strings stop
	// generating candidates (0 = unlimited). Matching remains exact for
	// pairs that also share a rarer token or a similar token.
	MaxTokenFreq int
	// Greedy switches verification to greedy-token-aligning.
	Greedy bool
	// ExactTokensOnly disables the similar-token path (the
	// exact-token-matching approximation).
	ExactTokensOnly bool
	// DisableBoundedVerify switches off threshold-aware verification:
	// by default each surviving candidate is verified under the SLD
	// budget the threshold implies (core.Verifier) and abandoned as soon
	// as any lower bound exceeds it. Matches are identical either way;
	// disabling is for ablation and equivalence testing only.
	DisableBoundedVerify bool
	// DisablePrefixFilter switches off threshold-aware candidate pruning:
	// by default the shared-token inverted index is probed only with the
	// arriving string's threshold-derived prefix — its MaxErrors(T, L)+1
	// rarest distinct tokens under the current document frequencies —
	// which is lossless (see markPrefix). Matches are identical either
	// way; disabling is for ablation and equivalence testing only.
	DisablePrefixFilter bool
	// DisableSIMD switches off the vectorized batched verification path:
	// by default (on hardware and builds where core.BatchKernelAvailable)
	// each probe's filter-surviving candidates are verified as one batch
	// whose token-distance cells run a vector-lane-width at a time.
	// Matches are identical either way; disabling is for ablation,
	// equivalence testing, and ruling out kernel issues in the field.
	DisableSIMD bool
	// DisableSegmentPrefixFilter switches off threshold-aware pruning of
	// the similar-token path: by default the segment index is probed only
	// with the arriving string's threshold-derived prefix tokens (plus,
	// under a finite MaxTokenFreq, tokens beyond the cutoff), and — when
	// MaxTokenFreq is unlimited — only prefix tokens are segment-indexed
	// at all. Lossless (see markPrefix and prefilter.SegmentPrefixLen);
	// matches are identical either way, and disabling is for ablation
	// and equivalence testing only.
	DisableSegmentPrefixFilter bool
	// Tokenizer defaults to whitespace+punctuation.
	Tokenizer token.Tokenizer
}

// validate normalizes the options shared by both matcher implementations.
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

// MatcherStats is a snapshot of a sequential Matcher's verification
// counters.
type MatcherStats struct {
	// Strings is the number of indexed strings.
	Strings int
	// Verified counts candidate pairs reaching verification.
	Verified int64
	// BudgetPruned counts verifications rejected early by the
	// threshold-derived SLD budget (0 when DisableBoundedVerify).
	BudgetPruned int64
	// PrefixPruned counts posting entries the prefix filter skipped at
	// probe time — shared-token candidates the unfiltered probe would
	// have generated (0 when DisablePrefixFilter).
	PrefixPruned int64
	// SegPrefixPruned counts probe tokens whose segment-index probe was
	// skipped by the segment prefix filter (0 when
	// DisableSegmentPrefixFilter).
	SegPrefixPruned int64
	// SegKeysProbed / SegTokensChecked / SegTokensSimilar are the
	// similar-token probe funnel: segment-window fingerprint lookups,
	// distinct indexed tokens reaching the token-NLD check, and tokens
	// within the token threshold (whose postings became candidates).
	SegKeysProbed    int64
	SegTokensChecked int64
	SegTokensSimilar int64
	// BatchedPairs counts candidate pairs verified through the batched
	// vector path (0 when DisableSIMD, when bounded verification is off,
	// or when the kernel is unavailable on this hardware/build).
	BatchedPairs int64
	// SIMDKernels / SIMDLanes count vector-kernel invocations and the
	// occupied lanes they carried; SIMDLanes/SIMDKernels (out of 16) is
	// the lane-fill efficiency.
	SIMDKernels int64
	SIMDLanes   int64
	// SigPruned counts batched pairs the verifier's character-signature
	// pre-pass rejected before any DP cell (a subset of BudgetPruned).
	SigPruned int64
	// BatchScalarCells counts token-pair cells inside the batched path
	// that fell back to the scalar DP (oversized or non-BMP tokens).
	BatchScalarCells int64
	// CandGenWall / VerifyWall accumulate the wall time spent generating
	// candidates (index probes, merge, dedup) and verifying them.
	CandGenWall time.Duration
	VerifyWall  time.Duration
}

// Matcher is the incremental joiner. Not safe for concurrent use; see
// ShardedMatcher for the concurrent variant.
type Matcher struct {
	opt     Options
	strings []token.TokenizedString
	ix      *tokenIndex
	bver    batchVerifier // reusable verification engine + batch scratch (single-threaded)
	scratch *probeScratch // reusable segment-probe scratch (single-threaded)

	emptyIDs []int32 // token-less strings
	seen     []uint32
	gen      uint32

	// candBuf / freqBuf / keyBuf are reused per call so candidate
	// collection and prefix selection stay allocation-free at steady
	// state.
	candBuf []int32
	freqBuf []int32
	keyBuf  []int64

	verified     int64
	budgetPruned int64
	batchCtr     core.BatchCounters
	probeCtr     probeCounters
	candGenWall  time.Duration
	verifyWall   time.Duration
}

// NewMatcher validates options and creates an empty matcher.
func NewMatcher(opt Options) (*Matcher, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	m := &Matcher{opt: opt, ix: newTokenIndex(opt), scratch: newProbeScratch(opt.Threshold)}
	m.bver.ver.Greedy = opt.Greedy
	m.bver.ver.DisableBatch = opt.DisableSIMD
	return m, nil
}

// Stats snapshots the matcher's verification counters.
func (m *Matcher) Stats() MatcherStats {
	return MatcherStats{
		Strings:          len(m.strings),
		Verified:         m.verified,
		BudgetPruned:     m.budgetPruned,
		PrefixPruned:     m.probeCtr.prefixPruned,
		SegPrefixPruned:  m.probeCtr.segPrefixPruned,
		SegKeysProbed:    m.probeCtr.segKeysProbed,
		SegTokensChecked: m.probeCtr.segTokensChecked,
		SegTokensSimilar: m.probeCtr.segTokensSimilar,
		BatchedPairs:     m.batchCtr.Batched,
		SIMDKernels:      m.batchCtr.Kernels,
		SIMDLanes:        m.batchCtr.Lanes,
		SigPruned:        m.batchCtr.SigPruned,
		BatchScalarCells: m.batchCtr.ScalarCells,
		CandGenWall:      m.candGenWall,
		VerifyWall:       m.verifyWall,
	}
}

// Len returns the number of indexed strings.
func (m *Matcher) Len() int { return len(m.strings) }

// Add matches a raw string against everything previously added, then
// indexes it, returning the matches sorted by id. The returned id of the
// new string is len-1 after the call.
func (m *Matcher) Add(s string) []Match {
	ts := m.opt.Tokenizer(s)
	id := int32(len(m.strings))
	probe := distinctProbe(ts)

	matches := m.match(ts, probe)

	// ---- Index the new string -------------------------------------------
	m.strings = append(m.strings, ts)
	m.seen = append(m.seen, 0)
	if ts.Count() == 0 {
		m.emptyIDs = append(m.emptyIDs, id)
		return matches
	}
	m.ix.insert(probe, id)
	return matches
}

// Query matches a raw string against everything previously added without
// indexing it. Like Add, it is not safe for concurrent use.
func (m *Matcher) Query(s string) []Match {
	ts := m.opt.Tokenizer(s)
	return m.match(ts, distinctProbe(ts))
}

// match generates, filters and verifies candidates for ts (with probe its
// distinct tokens) against the current index. Generation and verification
// are separate passes so their wall times are tracked independently.
func (m *Matcher) match(ts token.TokenizedString, probe []probeToken) []Match {
	var out []Match
	if ts.Count() == 0 {
		for _, e := range m.emptyIDs {
			out = append(out, Match{ID: int(e)})
		}
		return out
	}

	cands := m.genCandidates(ts, probe)

	// ---- Verify ---------------------------------------------------------
	verifyStart := time.Now()
	var verified, pruned int64
	out, verified, pruned = m.bver.verifyCands(ts, m.strings, nil, cands, &m.opt, &m.batchCtr, out)
	m.verified += verified
	m.budgetPruned += pruned
	m.verifyWall += time.Since(verifyStart)
	sortMatches(out)
	return out
}

// genCandidates probes the index with ts's (prefix-marked) distinct
// tokens and returns the deduplicated candidate ids. The returned
// slice is the matcher's reusable buffer: valid until the next call.
// The caller has ruled out the empty probe.
func (m *Matcher) genCandidates(ts token.TokenizedString, probe []probeToken) []int32 {
	m.gen++
	start := time.Now()
	defer func() { m.candGenWall += time.Since(start) }()

	// The prefix marks serve both filters, so they are computed when
	// either is on (probeToken.nonPrefix records the raw fact; the index
	// consults its own filter flags).
	if !m.opt.DisablePrefixFilter || !m.opt.DisableSegmentPrefixFilter {
		m.freqBuf = m.freqBuf[:0]
		for _, p := range probe {
			m.freqBuf = append(m.freqBuf, m.ix.freqOf(p.s))
		}
		markPrefix(probe, m.freqBuf, m.opt.Threshold, ts, &m.keyBuf)
	}
	m.candBuf = m.candBuf[:0]
	m.ix.candidates(probe, m.scratch, &m.probeCtr, func(cand int32) {
		if m.seen[cand] == m.gen {
			return
		}
		m.seen[cand] = m.gen
		m.candBuf = append(m.candBuf, cand)
	})
	return m.candBuf
}
