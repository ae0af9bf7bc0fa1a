package stream

import (
	"repro/internal/strdist"
	"repro/internal/token"
)

// probeToken is one distinct token of an arriving string, carried with its
// cached rune form so neither matching nor indexing re-decodes it.
type probeToken struct {
	s string
	r []rune
	// tid is the token's id in the matcher's token space, stamped by
	// markProbe; -1 while the token is new to it.
	tid token.TokenID
	// nonPrefix marks a token outside the string's threshold-derived
	// prefix (its MaxErrors(T, L)+1 rarest distinct tokens under the
	// frequency order — see markPrefix). The shared-token inverted-index
	// lookup skips such tokens, and the segment-index probe skips them
	// (subject to the freq > M carve-out below).
	nonPrefix bool
}

// distinctProbe extracts the distinct tokens of ts. Tokens are stored
// sorted, so deduplication is a neighbor scan and the probe order is
// deterministic: it is the order of ts's Members in a token.Corpus.
func distinctProbe(ts token.TokenizedString) []probeToken {
	probe := make([]probeToken, 0, ts.Count())
	for i, t := range ts.Tokens {
		if i > 0 && t == ts.Tokens[i-1] {
			continue
		}
		probe = append(probe, probeToken{s: t, r: ts.TokenRunes(i), tid: -1})
	}
	return probe
}

// tokenIndex is one shard of the incremental generate-filter index: the
// shared-token inverted index plus the Pass-Join style segment index over
// the matcher's token space, a token.Corpus. Shard i of n owns the token
// ids ≡ i (mod n), each at local slot id/n (at one shard, every token at
// its own id). Token runes and frequencies are read from the token space
// the caller passes in; the index stores only what is keyed by token.
// The type is not goroutine-safe: the ShardedMatcher guards the token
// space and every shard with one RWMutex.
type tokenIndex struct {
	threshold float64
	maxFreq   int
	exactOnly bool
	// shard and shards place this index in the token-id partition.
	shard, shards token.TokenID

	// postings maps a local slot to the ids of the strings containing its
	// token.
	postings [][]int32
	// segIndexed marks the local slots whose token's segments are present
	// in segBuckets. With storage-side pruning (see insert) a token is
	// segment-indexed lazily, the first time it lands inside some string's
	// prefix; without it, on its first insert.
	segIndexed []bool

	// segBuckets is the similar-token index: (tokenLen ls, probeLen ly)
	// -> segment fingerprint -> ids of the tokens whose i-th segment under
	// the (ls, ly) partition hashes there. 64-bit fingerprint keys make
	// both sides of the index allocation-free: probes derive window
	// fingerprints from a rolling prefix-hash in O(1) per window instead
	// of materializing a substring per window. Fingerprint collisions are
	// possible and harmless: probeSimilar verifies the actual segment
	// runes before trusting a hit.
	segBuckets map[uint32]map[uint64][]token.TokenID

	// plans memoizes the per-(tokenLen, probeLen) partition geometry for
	// the insert side. Guarded by the caller's write lock like the rest
	// of the index; the probe side keeps its own memo in probeScratch so
	// concurrent readers never share it.
	plans planCache
}

func newTokenIndex(opt Options, shard, shards int) *tokenIndex {
	return &tokenIndex{
		threshold:  opt.Threshold,
		maxFreq:    opt.MaxTokenFreq,
		exactOnly:  opt.ExactTokensOnly,
		shard:      token.TokenID(shard),
		shards:     token.TokenID(shards),
		segBuckets: make(map[uint32]map[uint64][]token.TokenID),
		plans:      planCache{t: opt.Threshold},
	}
}

// slot returns tid's local slot and whether this shard owns tid.
func (ix *tokenIndex) slot(tid token.TokenID) (int, bool) {
	return int(tid / ix.shards), tid%ix.shards == ix.shard
}

// prunesStorage reports whether insert honours prefix marks: with no
// max-frequency cutoff and the similar-token path on.
//
// Storage-side segment pruning: a token's segments enter segBuckets only
// once the token appears inside some string's threshold-derived prefix
// (nonPrefix false), which shrinks the segment index and the insert cost
// by the non-prefix share of the token space. Lossless, whatever
// frequencies priced the prefix (ShardedMatcher.index prices each range
// against the frequencies of its own moment): see prefilter.PrefixLen;
// the inverted index stores every token. Under a finite cutoff M storage
// pruning is off: a token shared by a qualifying pair can cross the
// cutoff between the insert and the probe, stranding a pair whose
// segment witness was pruned at insert time.
func (ix *tokenIndex) prunesStorage() bool { return ix.maxFreq <= 0 && !ix.exactOnly }

// insert registers string id under token tid of tc, which this shard
// owns; nonPrefix is the token's prefix mark in that string, which only
// a storage-pruning shard (prunesStorage) reads.
func (ix *tokenIndex) insert(tc *token.Corpus, tid token.TokenID, nonPrefix bool, id int32) {
	slot, _ := ix.slot(tid)
	for len(ix.postings) <= slot {
		ix.postings = append(ix.postings, nil)
		ix.segIndexed = append(ix.segIndexed, false)
	}
	if !ix.exactOnly && !ix.segIndexed[slot] && !(ix.prunesStorage() && nonPrefix) {
		ix.segIndexed[slot] = true
		ix.indexTokenSegments(tid, tc.TokenRunes[tid])
	}
	ix.postings[slot] = append(ix.postings[slot], id)
}

// sweepTombstones compacts dead string ids out of every posting list,
// in place and order-preserving, and returns how many entries it
// removed. A token left with no postings is de-listed from the segment
// index (its fingerprints are dropped and segIndexed cleared, so a
// later re-appearance re-indexes it lazily); the token keeps its id.
// The sweep changes no answer and no frequency: the tombstone already
// uncounted the string (token.Corpus.Forget), so the max-frequency gate
// and the prefix orders read live document frequencies whether or not
// a dead id still sits in some posting list. The caller holds the
// matcher's write lock.
func (ix *tokenIndex) sweepTombstones(dead []bool) int {
	removed := 0
	emptied := false
	for tid := range ix.postings {
		ps := ix.postings[tid]
		if len(ps) == 0 {
			continue
		}
		kept := ps[:0]
		for _, id := range ps {
			if int(id) < len(dead) && dead[id] {
				removed++
				continue
			}
			kept = append(kept, id)
		}
		if len(kept) == 0 {
			ix.postings[tid] = nil
			if ix.segIndexed[tid] {
				ix.segIndexed[tid] = false
				emptied = true
			}
			continue
		}
		ix.postings[tid] = kept
	}
	if emptied {
		ix.dropEmptySegTokens()
	}
	return removed
}

// dropEmptySegTokens rewrites the segment index keeping only tokens
// that still have postings; called after a sweep emptied at least one
// segment-indexed token. Fingerprint lists are compacted in place and
// empty lists and bucket maps are deleted so churned token shapes do
// not accrete empty map entries.
func (ix *tokenIndex) dropEmptySegTokens() {
	for bkey, bk := range ix.segBuckets {
		for k, tids := range bk {
			kept := tids[:0]
			for _, tid := range tids {
				if slot, _ := ix.slot(tid); len(ix.postings[slot]) > 0 {
					kept = append(kept, tid)
				}
			}
			if len(kept) == 0 {
				delete(bk, k)
				continue
			}
			bk[k] = kept
		}
		if len(bk) == 0 {
			delete(ix.segBuckets, bkey)
		}
	}
}

// indexTokenSegments registers a distinct token's segment fingerprints
// for every compatible probe length (the MassJoin index side).
func (ix *tokenIndex) indexTokenSegments(tid token.TokenID, r []rune) {
	l := len(r)
	if l >= maxSegLen {
		return // beyond the packed bucket-key range; never a real token
	}
	maxLy := strdist.MaxLenWithin(ix.threshold, l)
	if maxLy >= maxSegLen {
		maxLy = maxSegLen - 1
	}
	minLy := strdist.MinLenWithin(ix.threshold, l)
	for ly := minLy; ly <= maxLy; ly++ {
		pl := ix.plans.plan(l, ly)
		if pl.tau < 0 {
			continue
		}
		bkey := bucketKey(l, ly)
		bk := ix.segBuckets[bkey]
		if bk == nil {
			bk = make(map[uint64][]token.TokenID)
			ix.segBuckets[bkey] = bk
		}
		for i := range pl.segs {
			sp := &pl.segs[i]
			k := fpKey(hashSeg(r[sp.start:sp.start+sp.n]), i)
			bk[k] = append(bk[k], tid)
		}
	}
}

// probeCounters is the per-call candidate-generation funnel, accumulated
// by the matcher into its stats.
type probeCounters struct {
	// prefixPruned counts posting entries the exact-path prefix filter
	// skipped (candidates the unfiltered probe would have generated).
	prefixPruned int64
	// segPrefixPruned counts probe tokens whose segment probe was skipped
	// by the fuzzy-path prefix filter.
	segPrefixPruned int64
	// segKeysProbed counts segment-window fingerprint lookups.
	segKeysProbed int64
	// segTokensChecked counts distinct indexed tokens reaching the NLD
	// check (after dedup, self-exclusion, collision verification and the
	// max-frequency gate).
	segTokensChecked int64
	// segTokensSimilar counts checked tokens within the token NLD
	// threshold (their postings become candidates).
	segTokensSimilar int64
}

func (pc *probeCounters) add(o *probeCounters) {
	pc.prefixPruned += o.prefixPruned
	pc.segPrefixPruned += o.segPrefixPruned
	pc.segKeysProbed += o.segKeysProbed
	pc.segTokensChecked += o.segTokensChecked
	pc.segTokensSimilar += o.segTokensSimilar
}

// candidates feeds every indexed string id sharing a prefix token with
// the (markProbe-stamped) probe — or, unless exact-token matching is on,
// containing a token within the NLD threshold of a prefix token (see
// probeSimilar for the prefix restriction's losslessness) — to emit. The
// exact lookup runs on the token's owning shard only; the segment probe
// runs on every shard, since a similar token may live on any. The same id
// may be emitted more than once; callers deduplicate. sc is caller-owned
// probe scratch (one per worker); counters accumulate into pc.
func (ix *tokenIndex) candidates(tc *token.Corpus, probe []probeToken, sc *probeScratch, pc *probeCounters, emit func(int32)) {
	for pi := range probe {
		p := &probe[pi]
		var freq int32
		if p.tid >= 0 {
			freq = tc.Freq[p.tid]
		}
		// Shared-token candidates: prefix tokens only. Lossless — a pair
		// within the threshold that shares any token with the probe shares
		// one of its MaxErrors+1 rarest tokens (see markPrefix).
		if slot, own := ix.slot(p.tid); p.tid >= 0 && own && slot < len(ix.postings) &&
			(ix.maxFreq <= 0 || int(freq) <= ix.maxFreq) {
			if p.nonPrefix {
				pc.prefixPruned += int64(len(ix.postings[slot]))
			} else {
				for _, cand := range ix.postings[slot] {
					emit(cand)
				}
			}
		}
		if ix.exactOnly {
			continue
		}
		// Similar-token candidates: probe the segment index with prefix
		// tokens only, and under a finite cutoff M with tokens beyond it
		// (the carve-out; see markPrefix and prefilter.PrefixLen).
		if p.nonPrefix && !(ix.maxFreq > 0 && int(freq) > ix.maxFreq) {
			pc.segPrefixPruned++
			continue
		}
		ix.probeSimilar(tc, sc, pc, p.r, p.tid, emit)
	}
}

// probeSimilar finds this shard's indexed tokens with NLD <= T to the
// probe token and feeds their postings to emit. selfTid (-1 for none) is
// the probe token's own id, which is skipped — identical tokens belong to
// the exact shared-token path. The loop is allocation-free at steady
// state: window keys come from a rolling prefix-hash over the probe
// runes, dedup uses the scratch's epoch-stamped visited array, and the
// partition/window geometry is memoized per (ls, ly) in the scratch.
func (ix *tokenIndex) probeSimilar(tc *token.Corpus, sc *probeScratch, pc *probeCounters, r []rune, selfTid token.TokenID, emit func(int32)) {
	ly := len(r)
	if ly >= maxSegLen {
		return
	}
	minLs := strdist.MinLenWithin(ix.threshold, ly)
	maxLs := strdist.MaxLenWithin(ix.threshold, ly)
	if maxLs >= maxSegLen {
		maxLs = maxSegLen - 1
	}
	sc.begin(len(tc.TokenRunes))
	hashed := false
	for ls := minLs; ls <= maxLs; ls++ {
		// Bucket first: if no indexed token has length ls (for this probe
		// length), skip the partition geometry and the window walk
		// entirely.
		bk := ix.segBuckets[bucketKey(ls, ly)]
		if bk == nil {
			continue
		}
		pl := sc.plans.plan(ls, ly)
		if pl.tau < 0 {
			continue
		}
		if !hashed {
			sc.prepare(r)
			hashed = true
		}
		for i := range pl.segs {
			sp := &pl.segs[i]
			for q := sp.lo; q <= sp.hi; q++ {
				pc.segKeysProbed++
				tids := bk[fpKey(sc.windowHash(int(q), int(sp.n)), i)]
				for _, tid := range tids {
					if tid == selfTid || sc.visited[tid] == sc.epoch {
						continue
					}
					other := tc.TokenRunes[tid]
					// Collision verification: the fingerprint must really
					// be this token's i-th segment. A mismatch leaves the
					// token unvisited — a later window may hit it
					// genuinely.
					if !runesEqual(other[sp.start:sp.start+sp.n], r[q:q+sp.n]) {
						continue
					}
					sc.visited[tid] = sc.epoch
					if ix.maxFreq > 0 && int(tc.Freq[tid]) > ix.maxFreq {
						continue
					}
					pc.segTokensChecked++
					if !ix.tokenNLDWithin(other, r, ls, ly, int(pl.tau), &sc.levRow) {
						continue
					}
					pc.segTokensSimilar++
					slot, _ := ix.slot(tid)
					for _, cand := range ix.postings[slot] {
						emit(cand)
					}
				}
			}
		}
	}
}

// tokenNLDWithin verifies NLD(x, y) <= T with a banded Levenshtein
// computation over the caller's scratch row (cheap for short tokens).
func (ix *tokenIndex) tokenNLDWithin(x, y []rune, lx, ly, tau int, row *[]uint16) bool {
	d, ok := strdist.LevenshteinBoundedScratchU16(x, y, tau, row)
	if !ok {
		return false
	}
	return strdist.WithinNLD(d, lx, ly, ix.threshold)
}
