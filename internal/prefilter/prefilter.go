// Package prefilter implements threshold-aware candidate pruning for the
// shared-token candidate-generation path: PASS-JOIN/prefix-filter style
// prefix probing plus a positional filter, specialized to the NSLD
// threshold semantics of the paper.
//
// The key observation: every token occurrence of x that is not matched to
// an identical token of y contributes at least one edit to SLD(x, y), so a
// pair with NSLD <= T has at most B = MaxSLDWithin(T, L(x), L(y)) distinct
// tokens on either side without an identical partner on the other. Order
// the token space by a fixed global total order (document frequency
// ascending, TokenID ascending on ties — rarest first) and call the first
//
//	p(x) = min(|distinct(x)|, MaxErrors(T, L(x)) + 1)
//
// tokens of x under that order its prefix. Then for any pair with
// NSLD <= T that shares at least one token, the two prefixes share a
// token (see FirstCommon for the argument). The shared-token generator may
// therefore index and probe prefixes only — the pairs it no longer emits
// are exactly pairs that either share no token (never job-1's
// responsibility) or cannot satisfy the threshold (pruned losslessly).
//
// MaxErrors bounds B without knowing the partner: by Lemma 6 a pair with
// NSLD <= T has L(y) <= L(x)/(1-T), and MaxSLDWithin is monotone in the
// aggregate-length sum, so B <= MaxErrors(T, L(x)) for every admissible
// partner.
package prefilter

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/slab"
	"repro/internal/token"
)

// MaxPartnerAggLen returns the largest aggregate length a string within
// NSLD threshold t of a string with aggregate length aggLen can have.
// Derivation: NSLD <= t implies sld <= t*(La+Lb)/(2-t), and sld >= Lb-La
// for Lb >= La (each missing rune must be inserted), which rearranges to
// Lb <= La/(1-t).
func MaxPartnerAggLen(t float64, aggLen int) int {
	if t <= 0 {
		return aggLen
	}
	if t >= 1 {
		// Degenerate: the Lemma 6 bound is vacuous. Callers gate on
		// t < 1 (join thresholds live in [0, 1)); return a safe identity.
		return aggLen
	}
	lb := int(float64(aggLen) / (1 - t))
	// Snap to the exact boundary of the integer inequality La >= (1-t)*Lb
	// so float rounding never undercounts an admissible partner.
	for float64(aggLen) >= (1-t)*float64(lb+1) {
		lb++
	}
	return lb
}

// MaxErrors returns B(x): an upper bound on SLD(x, y) over every y with
// NSLD(x, y) <= t, computed from x's aggregate length alone. The prefix
// length of x is MaxErrors + 1.
func MaxErrors(t float64, aggLen int) int {
	if t < 0 {
		return -1
	}
	return core.MaxSLDWithin(t, aggLen, MaxPartnerAggLen(t, aggLen))
}

// PrefixLen returns the number of rarest-first distinct tokens of a string
// with the given aggregate length and distinct-token count that both
// candidate generators index/probe: min(distinct, MaxErrors + 1). For the
// shared-token generator see the package comment. For the similar-token
// generator the argument differs, because a similar-token witness need
// not be a shared token:
//
// Let (x, y) satisfy NSLD <= t and suppose the similar-token path is the
// pair's only generator — x and y share no (kept) token. Then every
// distinct (kept) token of x lies in distinct(x) \ distinct(y); each such
// token has at least one occurrence matched to a non-identical partner or
// unmatched, costing >= 1 edit apiece, so
//
//	|distinct(x)| <= SLD(x, y) <= MaxSLDWithin(t, L(x), L(y)) <= MaxErrors(t, L(x))
//
// (the last step by Lemma 6 monotonicity, exactly as in MaxErrors). The
// prefix is then *untruncated*, and every token — in particular every
// similar-witness carrier — is a prefix token. A pair that does share a
// token is the shared-token path's responsibility (its prefixes
// intersect; see FirstCommon / markPrefix), so restricting the segment
// index to prefix tokens on both the probe and the storage side loses no
// pair.
//
// Two boundary notes. First, nothing above consults the order itself —
// only the prefix length, which depends on L and the distinct count
// alone. Probe-side and storage-side selections may therefore use
// different (even arbitrarily stale) frequency orders and remain
// lossless. Second, under a finite max-frequency cutoff M the dichotomy
// leaks: a pair whose every shared token exceeds M is invisible to the
// shared-token path, yet its witness carrier can sit outside a truncated
// prefix — necessarily with frequency above M, since it is then at least
// as frequent as a shared prefix token that the M-gate rejected. Probe
// sides handle this by also probing tokens beyond the cutoff; storage
// sides cannot (the index side's frequencies at insert time may lie
// below a cutoff the token crosses later), so storage pruning is only
// performed when M is unlimited.
func PrefixLen(t float64, aggLen, distinct int) int {
	p := MaxErrors(t, aggLen) + 1
	if p > distinct {
		p = distinct
	}
	if p < 0 {
		p = 0
	}
	return p
}

// Index is the batch-side pruning state for one join: the global token
// order and every string's prefix under it. Build it once per join from
// the corpus's document frequencies; it is immutable afterwards and safe
// for concurrent readers (the reduce workers of both candidate
// generators, which run side by side). Its tables are slabs on loan from
// the slab pools until its owner calls Release.
type Index struct {
	c *token.Corpus

	// rank maps TokenID -> position in the global rarest-first order;
	// dropped tokens get rank -1 and never appear in prefixes.
	rank []int32
	// prefix[sid] holds the string's prefix tokens sorted by rank
	// ascending (the head of its full rank-sorted kept-distinct list).
	prefix [][]token.TokenID
	// distinct[sid] is the string's kept-distinct token count, the |D'|
	// term of the positional filter.
	distinct []int32
	// aggLen[sid] caches the string's aggregate length, saving a
	// TokenizedString copy per Admit call on the hot reducer path.
	aggLen []int32
	// budgetBySum[la+lb] precomputes MaxSLDWithin(t, la, lb), which
	// depends only on the aggregate-length sum; Admit runs once per
	// co-occurring pair, so the iterative boundary snap is hoisted here.
	budgetBySum []int
	// tables holds the slabs of the tables above, for Release.
	tables slab.Loans
}

// NewIndex builds the pruning index for a corpus at threshold t. dropped
// marks tokens excluded by the max-frequency cutoff M (nil = none): they
// take no part in the order or the prefixes, which preserves the exact
// candidate semantics of the unfiltered generator under the same M.
// The global order — kept tokens by (document frequency asc, TokenID asc)
// — is a counting sort over Freq, stable in id order. The deterministic
// tie-break is load-bearing: prefix sets must agree across workers,
// shards, and the batch/stream engines, and document frequencies tie
// constantly in real corpora.
//
// Losslessness does not require the order to be frequency-sorted: every
// argument in this package (FirstCommon's prefix-intersection theorem and
// Admit's positional filter) assumes only some fixed total order shared
// by all strings. The frequencies only make it prune well.
func NewIndex(c *token.Corpus, dropped []bool, t float64) *Index {
	maxFreq := int32(0)
	for _, f := range c.Freq {
		maxFreq = max(maxFreq, f)
	}
	// Dropped tokens sort as frequency maxFreq+1, after every kept one, so
	// they trail each rank-sorted list and are cut off its tail in place.
	isDropped := func(tid token.TokenID) bool { return dropped != nil && dropped[tid] }
	key := func(tid token.TokenID) int32 {
		if isDropped(tid) {
			return maxFreq + 1
		}
		return c.Freq[tid]
	}
	var scratch slab.Loans
	defer scratch.Return()
	next := slab.Take[int32](&scratch, int(maxFreq)+3) // next[k]: the next free rank for key k
	clear(next)
	for tid := range c.Freq {
		next[key(token.TokenID(tid))+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	ix := &Index{c: c}
	ix.rank = slab.Take[int32](&ix.tables, c.NumTokens())
	ix.prefix = slab.Take[[]token.TokenID](&ix.tables, c.NumStrings())
	ix.distinct = slab.Take[int32](&ix.tables, c.NumStrings())
	ix.aggLen = slab.Take[int32](&ix.tables, c.NumStrings())
	for tid := range ix.rank {
		k := key(token.TokenID(tid))
		ix.rank[tid] = next[k]
		next[k]++
	}
	maxLen := 0
	for sid := range c.Strings {
		l := c.Strings[sid].AggregateLen()
		ix.aggLen[sid] = int32(l)
		maxLen = max(maxLen, l)
	}
	ix.budgetBySum = slab.Take[int](&ix.tables, 2*maxLen+1)
	for sum := range ix.budgetBySum {
		ix.budgetBySum[sum] = core.MaxSLDWithin(t, sum, 0)
	}
	// maxPrefix[l] is MaxErrors(t, l) + 1, the prefix length of a string
	// of aggregate length l before the cap at its distinct count.
	maxPrefix := slab.Take[int](&scratch, maxLen+1)
	for l := range maxPrefix {
		maxPrefix[l] = MaxErrors(t, l) + 1
	}
	// Each string's members, rank-sorted, in one arena; the prefix is the
	// head of the kept part.
	size := 0
	for _, m := range c.Members {
		size += len(m)
	}
	arena := slab.Take[token.TokenID](&ix.tables, size)[:0]
	for sid, m := range c.Members {
		from := len(arena)
		arena = append(arena, m...)
		list := arena[from:len(arena):len(arena)]
		slices.SortFunc(list, func(a, b token.TokenID) int { return cmp.Compare(ix.rank[a], ix.rank[b]) })
		for len(list) > 0 && isDropped(list[len(list)-1]) {
			list = list[:len(list)-1]
		}
		ix.distinct[sid] = int32(len(list))
		if p := min(len(list), maxPrefix[ix.aggLen[sid]]); p > 0 {
			ix.prefix[sid] = list[:p:p]
		}
	}
	// Dropped tokens never appear in a prefix; FirstCommon reads only the
	// kept ranks.
	for tid := range ix.rank {
		if isDropped(token.TokenID(tid)) {
			ix.rank[tid] = -1
		}
	}
	return ix
}

// Release gives the index's tables back to the slab pools and nils them,
// so a use after Release panics. Only the index's owner calls it, once
// nothing reads the index or a prefix taken from it; a second call does
// nothing.
func (ix *Index) Release() {
	ix.tables.Return()
	ix.c, ix.rank, ix.prefix, ix.distinct, ix.aggLen, ix.budgetBySum = nil, nil, nil, nil, nil, nil
}

// Prefix returns the string's prefix tokens (rank-ascending). The caller
// must not mutate the returned slice.
func (ix *Index) Prefix(sid token.StringID) []token.TokenID { return ix.prefix[sid] }

// Distinct returns the string's kept-distinct token count (the |D'| term
// of the positional filter; 0 for tombstoned strings).
func (ix *Index) Distinct(sid token.StringID) int { return int(ix.distinct[sid]) }

// FirstCommon returns the first token (in the global order) present in
// both prefixes, with its position in each, or ok = false when the
// prefixes are disjoint.
//
// Why the first prefix-common token governs the pair: suppose prefixes
// were disjoint for a pair with NSLD <= T sharing a kept token, and let a
// (resp. b) be the last prefix element of x (resp. y), with, WLOG,
// rank(a) <= rank(b). Every prefix token of x precedes b, so if it were
// in distinct(y) it would be in y's prefix — contradiction with
// disjointness. Hence prefix(x) ⊆ distinct(x)\distinct(y), whose size is
// at most SLD <= B < |prefix(x)| (or the prefix is all of distinct(x) and
// the pair shares no token at all). Either way: contradiction.
func (ix *Index) FirstCommon(a, b token.StringID) (tid token.TokenID, posA, posB int, ok bool) {
	pa, pb := ix.prefix[a], ix.prefix[b]
	i, j := 0, 0
	for i < len(pa) && j < len(pb) {
		ra, rb := ix.rank[pa[i]], ix.rank[pb[j]]
		switch {
		case ra == rb:
			return pa[i], i, j, true
		case ra < rb:
			i++
		default:
			j++
		}
	}
	return 0, 0, 0, false
}

// Admit decides, inside the posting-list reducer of token z, whether the
// pair (a, b) should be emitted there. Exactly one reducer emits each
// surviving pair (the one owning the pair's first prefix-common token),
// and a pair is rejected — pruned — there when the positional filter
// proves NSLD > t. The caller has already applied the aggregate-length
// filter (core.LengthPrune): Job 1's reducers only pair strings inside
// its length window.
//
// Positional filter: all tokens common to distinct(a) and distinct(b) sit
// at rank-order positions >= posA in a and >= posB in b (any earlier
// common token would contradict z being the first prefix-common token —
// see FirstCommon), so the overlap is at most
// 1 + min(|D'a|-posA-1, |D'b|-posB-1); a pair within the threshold needs
// overlap >= max(|D'a|, |D'b|) - MaxSLDWithin(t, La, Lb).
func (ix *Index) Admit(z token.TokenID, a, b token.StringID) (emit, pruned bool) {
	first, posA, posB, ok := ix.FirstCommon(a, b)
	if !ok || first != z {
		return false, false // another reducer owns the pair
	}
	budget := ix.budgetBySum[ix.aggLen[a]+ix.aggLen[b]]
	da, db := int(ix.distinct[a]), int(ix.distinct[b])
	req := da
	if db > req {
		req = db
	}
	req -= budget
	if req > 1 {
		ubound := 1 + min(da-posA-1, db-posB-1)
		if ubound < req {
			return false, true
		}
	}
	return true, false
}
