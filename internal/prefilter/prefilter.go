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
// token (see Admit for the argument). The shared-token generator may
// therefore index and probe prefixes only — the pairs it no longer emits
// are exactly pairs that either share no token (never job-1's
// responsibility) or cannot satisfy the threshold (pruned losslessly).
// Each such pair meets in the reducer of every prefix token it shares,
// and the one of its first common token emits it: the map knows where
// each token sits in its string's prefix, so the reducer decides that
// from the two positions, comparing only the prefix heads before them.
//
// MaxErrors bounds B without knowing the partner: by Lemma 6 a pair with
// NSLD <= T has L(y) <= L(x)/(1-T), and MaxSLDWithin is monotone in the
// aggregate-length sum, so B <= MaxErrors(T, L(x)) for every admissible
// partner.
package prefilter

import (
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
// intersect; see Admit), so restricting the segment
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

// Index is the batch-side pruning state for one join: every string's
// prefix under the global token order, with what Job 1's reducers need to
// decide a pair there. Build it once per join from the corpus's document
// frequencies; it is immutable afterwards and safe for concurrent readers
// (the reduce workers of both candidate generators, which run side by
// side). Its tables are slabs on loan from package slab until its owner
// calls Release.
type Index struct {
	// off[sid]:off[sid+1] is string sid's prefix in the three arenas
	// below, position by position.
	off []int32
	// tok holds each prefix's tokens, rank ascending: the head of the
	// string's rank-sorted kept-distinct list.
	tok []token.TokenID
	// rank holds each prefix token's rank in the global rarest-first
	// order, so a reducer compares prefix heads without a rank lookup.
	rank []int32
	// head holds, per prefix position i, the signature of the ranks before
	// position i: bit r%64 is set for every such rank r. Two heads whose
	// signatures share no bit share no token.
	head []uint64
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
// argument in this package (the prefix-intersection theorem and Admit's
// ownership rule and positional filter) assumes only some fixed total
// order shared by all strings. The frequencies only make it prune well.
func NewIndex(c *token.Corpus, dropped []bool, t float64) *Index {
	maxFreq := int32(0)
	for _, f := range c.Freq {
		maxFreq = max(maxFreq, f)
	}
	// Dropped tokens sort as frequency maxFreq+1, after every kept one, so
	// their ranks are the top ones and they trail each rank-sorted list,
	// whose tail is cut off in place.
	key := func(tid int) int32 {
		if dropped != nil && dropped[tid] {
			return maxFreq + 1
		}
		return c.Freq[tid]
	}
	var scratch slab.Loans
	defer scratch.Return()
	next := slab.Take[int32](&scratch, int(maxFreq)+3) // next[k]: the next free rank for key k
	clear(next)
	for tid := range c.Freq {
		next[key(tid)+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	kept := next[maxFreq+1] // the ranks of kept tokens lie below it
	rank := slab.Take[int32](&scratch, c.NumTokens())
	for tid := range rank {
		k := key(tid)
		rank[tid] = next[k]
		next[k]++
	}
	n := c.NumStrings()
	ix := &Index{}
	ix.distinct = slab.Take[int32](&ix.tables, n)
	ix.aggLen = slab.Take[int32](&ix.tables, n)
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
	// The arenas are sized by the prefixes' lengths before dropped tokens
	// are cut, which bound them.
	size, longest := 0, 0
	for sid, m := range c.Members {
		size += min(len(m), maxPrefix[ix.aggLen[sid]])
		longest = max(longest, len(m))
	}
	ix.off = slab.Take[int32](&ix.tables, n+1)
	ix.tok = slab.Take[token.TokenID](&ix.tables, size)[:0]
	ix.rank = slab.Take[int32](&ix.tables, size)[:0]
	ix.head = slab.Take[uint64](&ix.tables, size)[:0]
	// Each string's members sort by rank as (rank, token) words, so the
	// sorted list yields both without a lookup.
	words := slab.Take[uint64](&scratch, longest)
	ix.off[0] = 0
	for sid, m := range c.Members {
		list := words[:len(m)]
		for i, tid := range m {
			list[i] = uint64(rank[tid])<<32 | uint64(uint32(tid))
		}
		slices.Sort(list)
		for len(list) > 0 && int32(list[len(list)-1]>>32) >= kept {
			list = list[:len(list)-1]
		}
		ix.distinct[sid] = int32(len(list))
		var sig uint64
		for _, w := range list[:min(len(list), maxPrefix[ix.aggLen[sid]])] {
			r := int32(w >> 32)
			ix.tok = append(ix.tok, token.TokenID(uint32(w)))
			ix.rank = append(ix.rank, r)
			ix.head = append(ix.head, sig)
			sig |= 1 << (r & 63)
		}
		ix.off[sid+1] = int32(len(ix.rank))
	}
	return ix
}

// Release gives the index's tables back to package slab and nils them,
// so a use after Release panics. Only the index's owner calls it, once
// nothing reads the index or a prefix taken from it; a second call does
// nothing.
func (ix *Index) Release() {
	ix.tables.Return()
	ix.off, ix.tok, ix.rank, ix.head, ix.distinct, ix.aggLen, ix.budgetBySum = nil, nil, nil, nil, nil, nil, nil
}

// Prefix returns the string's prefix tokens (rank-ascending). The caller
// must not mutate the returned slice.
func (ix *Index) Prefix(sid token.StringID) []token.TokenID {
	lo, hi := ix.off[sid], ix.off[sid+1]
	return ix.tok[lo:hi:hi]
}

// Pos returns the position of token z in the string's prefix, or -1 when
// the prefix does not hold z: one scan of a prefix a few tokens long.
func (ix *Index) Pos(sid token.StringID, z token.TokenID) int {
	return slices.Index(ix.Prefix(sid), z)
}

// Distinct returns the string's kept-distinct token count (the |D'| term
// of the positional filter; 0 for tombstoned strings).
func (ix *Index) Distinct(sid token.StringID) int { return int(ix.distinct[sid]) }

// Admit decides, inside the posting-list reducer of a token z that sits
// at position posA of a's prefix and posB of b's, whether the pair (a, b)
// should be emitted there. Exactly one reducer emits each surviving pair:
// the one owning the pair's first prefix-common token, where the prefix
// heads a[:posA] and b[:posB] share no token. A pair is rejected — pruned
// — there when the positional filter proves NSLD > t. The caller has
// already applied the aggregate-length filter (core.LengthPrune): Job 1's
// reducers only pair strings inside its length window.
//
// Ownership: heads whose rank signatures share no bit are disjoint, which
// decides most pairs in O(1); heads whose signatures meet are merged by
// rank, exactly. Why the first prefix-common token governs the pair:
// suppose the prefixes were disjoint for a pair with NSLD <= T sharing a
// kept token, and let a' (resp. b') be the last prefix element of a
// (resp. b), with, WLOG, rank(a') <= rank(b'). Every prefix token of a
// precedes b', so if it were in distinct(b) it would be in b's prefix —
// contradiction with disjointness. Hence prefix(a) ⊆
// distinct(a)\distinct(b), whose size is at most SLD <= B < |prefix(a)|
// (or the prefix is all of distinct(a) and the pair shares no token at
// all). Either way: contradiction.
//
// Positional filter: all tokens common to distinct(a) and distinct(b) sit
// at rank-order positions >= posA in a and >= posB in b (any earlier
// common token would sit in both heads), so the overlap is at most
// 1 + min(|D'a|-posA-1, |D'b|-posB-1); a pair within the threshold needs
// overlap >= max(|D'a|, |D'b|) - MaxSLDWithin(t, La, Lb).
func (ix *Index) Admit(a, b token.StringID, posA, posB int) (emit, pruned bool) {
	ha, hb := int(ix.off[a]), int(ix.off[b])
	if ix.head[ha+posA]&ix.head[hb+posB] != 0 && meet(ix.rank[ha:ha+posA], ix.rank[hb:hb+posB]) {
		return false, false // another reducer owns the pair
	}
	budget := ix.budgetBySum[ix.aggLen[a]+ix.aggLen[b]]
	da, db := int(ix.distinct[a]), int(ix.distinct[b])
	req := max(da, db) - budget
	if req > 1 && 1+min(da-posA-1, db-posB-1) < req {
		return false, true
	}
	return true, false
}

// meet reports whether two rank-ascending lists share a rank.
func meet(x, y []int32) bool {
	for i, j := 0, 0; i < len(x) && j < len(y); {
		switch {
		case x[i] == y[j]:
			return true
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return false
}
