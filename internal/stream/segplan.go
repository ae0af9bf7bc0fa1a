package stream

import (
	"repro/internal/passjoin"
	"repro/internal/strdist"
)

// maxSegLen bounds the token/probe lengths the segment index covers; the
// bucket key packs both lengths into one uint32. Tokens at or beyond it
// (64Ki runes) are outside any realistic workload and simply skip the
// similar-token path.
const maxSegLen = 1 << 16

// bucketKey packs (tokenLen, probeLen) into the segBuckets key.
func bucketKey(ls, ly int) uint32 {
	return uint32(ls)<<16 | uint32(ly)
}

// segHashBase is the polynomial base of the segment fingerprints (the
// FNV-64 prime; any large odd constant works — collisions are verified
// against the actual runes before use).
const segHashBase = 0x100000001b3

// hashSeg fingerprints one explicit segment (the index side): the
// polynomial Σ r[k]·base^(n-1-k) over uint64 wraparound arithmetic,
// matching probeScratch.windowHash.
func hashSeg(r []rune) uint64 {
	var h uint64
	for _, c := range r {
		h = h*segHashBase + uint64(c)
	}
	return h
}

// fpKey folds the segment ordinal into a content fingerprint so equal
// chunks indexed under different segment positions occupy distinct keys.
func fpKey(h uint64, seg int) uint64 {
	return (h ^ uint64(seg)*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
}

// runesEqual reports a == b for equal-length slices (the caller
// guarantees the lengths match).
func runesEqual(a, b []rune) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// segSpan is one segment of the even partition of an ls-length token for
// probes of length ly (passjoin.EvenSegment): its start/length in the
// token, and the window [lo, hi] of substring starts in the probe that
// the multi-match-aware PASS-JOIN bound allows for it
// (passjoin.SubstringWindow).
type segSpan struct {
	start, n int32
	lo, hi   int32
}

// segPlan is the memoized geometry for one (ls, ly) pair: the token NLD
// budget tau (-1 when the pair of lengths cannot satisfy the threshold)
// and the tau+1 segment spans with their probe windows.
type segPlan struct {
	tau  int32
	segs []segSpan
}

// planCache memoizes segPlans per packed (ls, ly). The insert side keeps
// one inside the (write-locked) tokenIndex; each probe worker keeps its
// own inside its probeScratch, so plans are computed O(distinct length
// pairs) times per owner and the steady-state hot path never allocates.
type planCache struct {
	t float64
	m map[uint32]*segPlan
}

var negPlan = &segPlan{tau: -1}

func (pc *planCache) plan(ls, ly int) *segPlan {
	key := bucketKey(ls, ly)
	if pl, ok := pc.m[key]; ok {
		return pl
	}
	if pc.m == nil {
		pc.m = make(map[uint32]*segPlan)
	}
	tau := strdist.MaxLDWithin(pc.t, ls, ly)
	if tau < 0 {
		pc.m[key] = negPlan
		return negPlan
	}
	pl := &segPlan{tau: int32(tau), segs: make([]segSpan, tau+1)}
	for i := range pl.segs {
		sg := passjoin.EvenSegment(ls, tau+1, i)
		lo, hi := passjoin.SubstringWindow(ls, ly, tau, i, sg, true)
		pl.segs[i] = segSpan{start: int32(sg.Start), n: int32(sg.Len), lo: int32(lo), hi: int32(hi)}
	}
	pc.m[key] = pl
	return pl
}

// probeScratch is the per-worker scratch of the similar-token probe: the
// epoch-stamped visited array replacing the old per-token `checked` map,
// the rolling prefix-hash arrays replacing per-window substring
// materialization, the memoized partition geometry, and the bounded-LD DP
// row. One scratch serves any number of partitions (the sharded matcher
// pools them across shards); none of its state is retained between probe
// tokens except by design (epoch, memo, capacities).
type probeScratch struct {
	visited []uint32 // visited[tid] == epoch: token already checked
	epoch   uint32
	hash    []uint64 // hash[j] = polynomial hash of r[:j]
	pow     []uint64 // pow[j] = segHashBase^j
	plans   planCache
	levRow  []uint16
}

func newProbeScratch(threshold float64) *probeScratch {
	return &probeScratch{plans: planCache{t: threshold}}
}

// begin opens a probe-token epoch over a partition with n interned
// tokens: grows the visited array as the partition grows and advances the
// epoch, zeroing only on uint32 wraparound.
func (sc *probeScratch) begin(n int) {
	if len(sc.visited) < n {
		if cap(sc.visited) >= n {
			grown := sc.visited[:n]
			for i := len(sc.visited); i < n; i++ {
				grown[i] = 0
			}
			sc.visited = grown
		} else {
			grown := make([]uint32, n, 2*n)
			copy(grown, sc.visited)
			sc.visited = grown
		}
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.visited)
		sc.epoch = 1
	}
}

// prepare fills the prefix-hash and power arrays for the probe runes,
// after which any window fingerprint is O(1) via windowHash.
func (sc *probeScratch) prepare(r []rune) {
	n := len(r) + 1
	if cap(sc.hash) < n {
		sc.hash = make([]uint64, n, 2*n)
		sc.pow = make([]uint64, n, 2*n)
	}
	sc.hash = sc.hash[:n]
	sc.pow = sc.pow[:n]
	sc.pow[0] = 1
	for j, c := range r {
		sc.hash[j+1] = sc.hash[j]*segHashBase + uint64(c)
		sc.pow[j+1] = sc.pow[j] * segHashBase
	}
}

// windowHash returns the fingerprint of r[q : q+n] from the prepared
// prefix hashes: H[q+n] − H[q]·base^n (uint64 wraparound), identical to
// hashSeg over the same runes.
func (sc *probeScratch) windowHash(q, n int) uint64 {
	return sc.hash[q+n] - sc.hash[q]*sc.pow[n]
}
