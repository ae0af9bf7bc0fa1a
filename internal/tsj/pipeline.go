package tsj

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mapreduce"
	"repro/internal/massjoin"
	"repro/internal/passjoin"
	"repro/internal/prefilter"
	"repro/internal/token"
)

// source is what differs between the joins run serves. It is built by
// the four entry points and is not user-settable.
type source struct {
	// c is the corpus view the pipeline runs over: every string of every
	// side, in one id and token space.
	c *token.Corpus
	// alive masks tombstoned strings (nil = every string is live); dead
	// strings neither generate nor receive candidates.
	alive []bool
	// split < 0 is a self-join. Otherwise ids below split are R, the rest
	// are P, and only cross-side pairs are candidates.
	split int
}

// live reports whether sid is inside the captured id space and not
// tombstoned.
func (s *source) live(sid token.StringID) bool {
	return s.alive == nil || (int(sid) < len(s.alive) && s.alive[sid])
}

// run is the TSJ pipeline (Sec. III-C…G): token cutoff, shared-token
// candidates, similar-token candidates, then de-duplicate + filter +
// verify. Every entry point is run over its own source.
func run(src *source, opts Options) ([]Result, *Stats, error) {
	if !(opts.Threshold >= 0 && opts.Threshold < 1) { // also rejects NaN
		return nil, nil, errors.New("tsj: threshold must be in [0, 1)")
	}
	c := src.c
	bipartite := src.split >= 0
	split := token.StringID(src.split)
	st := &Stats{}
	// Every job runs on the same worker count, resolved once, so the
	// verifier's per-worker engines cover the verify job's workers.
	workers := mapreduce.Config{Parallelism: opts.Parallelism}.Workers()
	engCfg := func(name string) mapreduce.Config {
		return mapreduce.Config{Name: name, MapTasks: opts.MapTasks, Parallelism: workers}
	}
	ver := newVerifier(c, opts, workers)

	// Live string ids, the universal job input.
	sids := make([]token.StringID, 0, c.NumStrings())
	for i := 0; i < c.NumStrings(); i++ {
		if src.live(token.StringID(i)) {
			sids = append(sids, token.StringID(i))
		}
	}

	// Token cutoff (Sec. III-G.2): freq(token) = #strings containing it,
	// which every source's c.Freq already holds; tokens above M are dropped.
	dropped := make([]bool, c.NumTokens())
	for tid, f := range c.Freq {
		if opts.MaxTokenFreq > 0 && int(f) > opts.MaxTokenFreq {
			dropped[tid] = true
			st.DroppedTokens++
		}
	}
	st.KeptTokens = c.NumTokens() - st.DroppedTokens

	// Preamble: token-less strings. They share no token with anything, but
	// pairs of them have NSLD 0 and belong in an exact result set.
	var results []Result
	var empties []token.StringID
	for _, sid := range sids {
		if len(c.Members[sid]) == 0 {
			empties = append(empties, sid)
		}
	}
	for i, a := range empties {
		for _, b := range empties[i+1:] {
			if bipartite && !(a < split && b >= split) {
				continue
			}
			results = append(results, Result{A: a, B: b})
			st.EmptyStringPairs++
		}
	}

	// ---- Job 1: shared-token candidate generation (Sec. III-C) ----------
	// map: r^t_s -> [<r^ti_s, r^t_s>]; reduce on token z: all pairs.
	//
	// The map ships only each string's threshold-derived prefix — its
	// MaxErrors(T, L)+1 rarest kept tokens under the global frequency
	// order — and the reducer emits a pair only from its first common
	// prefix token, after the positional and length filters prove the pair
	// can still satisfy NSLD <= T. The reducer of token z finds z's
	// position in each value's prefix, and the pair is z's exactly when
	// the prefix heads before those positions share no token (Admit).
	// Lossless under any fixed total order: see the prefilter package for
	// the argument. One prefix index serves both filters: Job 1's
	// first-common-token rule and Job 2's segment prefix restriction.
	pf := prefilter.NewIndex(c, dropped, opts.Threshold)
	defer pf.Release()

	// ---- Jobs 2a+2b: similar-token candidates (Sec. III-D) --------------
	// The stage reads only the corpus and the prefix index (safe for
	// concurrent readers), so it runs beside Job 1 into a private Stats.
	// Its jobs, counters and candidates are appended after Job 1's once
	// both are done, so every output order is as if they ran in turn. A
	// panic there ends the process, as one in any mapreduce worker does.
	var sim Stats
	var simCands []uint64
	var simWG sync.WaitGroup
	if opts.Matching == FuzzyTokenMatching {
		simWG.Add(1)
		go func() {
			defer simWG.Done()
			simCands = similarTokenCandidates(src, pf, opts, &sim)
		}()
	}

	// The values are ranks in the (side, aggregate length, id) order of the
	// live strings, so a reducer that sorts them walks each side by length
	// and each string's length-feasible partners form one window of the
	// partner run whose ends only move forward: as in PASS-JOIN's
	// length-ordered visit, pairs that fail the aggregate-length filter
	// are never enumerated.
	order, rank, lens := lengthOrder(src, sids)
	firstP, _ := slices.BinarySearch(sids, split) // R's live strings take the ranks below it
	var prefixPruned atomic.Int64
	// pos[w] is reduce worker w's scratch: the position of the key token
	// in each value's prefix.
	pos := make([][]int32, workers)
	sharedCands, st1 := mapreduce.Run(engCfg("tsj-shared-token"), sids,
		func(sid token.StringID, ctx *mapreduce.MapCtx[token.TokenID, int32]) {
			for _, tid := range pf.Prefix(sid) {
				ctx.Emit(tid, rank[sid])
			}
		},
		func(tid token.TokenID, ranks []int32, ctx *mapreduce.ReduceCtx[uint64]) {
			// A self-join pairs every i < j. R ranks sort before P ranks,
			// so a bipartite join pairs ranks[:nr] with ranks[nr:].
			slices.Sort(ranks)
			at := slices.Grow(pos[ctx.Worker()][:0], len(ranks))[:len(ranks)]
			pos[ctx.Worker()] = at
			for i, r := range ranks {
				at[i] = int32(pf.Pos(order[r], tid))
			}
			n, nr := len(ranks), len(ranks)
			if bipartite {
				nr, _ = slices.BinarySearch(ranks, int32(firstP))
			}
			// ranks[lo:hi] is the window of the partners of ranks[i] that
			// LengthPrune keeps. A self-join's partners follow i and are
			// no shorter, so only the upper end prunes; a bipartite
			// window starts at P's first rank and also drops the P
			// strings too short for ranks[i].
			var pruned int64
			lo, hi := nr, 0
			for i, ra := range ranks[:nr] {
				la := int(lens[ra])
				if !bipartite {
					lo = i + 1
				}
				for lo < n && int(lens[ranks[lo]]) < la && core.LengthPrune(la, int(lens[ranks[lo]]), opts.Threshold) {
					lo++
				}
				hi = max(hi, lo)
				for hi < n && !core.LengthPrune(la, int(lens[ranks[hi]]), opts.Threshold) {
					hi++
				}
				for j := lo; j < hi; j++ {
					a, b := order[ra], order[ranks[j]]
					emit, prn := pf.Admit(a, b, int(at[i]), int(at[j]))
					if !emit {
						if prn {
							pruned++
						}
						continue
					}
					ctx.Emit(pairKey(normPair(a, b)))
				}
			}
			if pruned > 0 {
				prefixPruned.Add(pruned)
			}
			// Quadratic pair enumeration beyond the default linear charge.
			nf, mf := float64(nr), float64(nr)
			if bipartite {
				mf = float64(n - nr)
			}
			ctx.AddCost(nf * mf * 0.05)
		},
	)
	st.Pipeline.Add(st1)
	st.SharedTokenCandidates = int64(len(sharedCands))
	st.PrefixPruned = prefixPruned.Load()
	simWG.Wait()
	st.Pipeline.Merge(&sim.Pipeline)
	st.SegPrefixPruned, st.SimilarTokenPairs = sim.SegPrefixPruned, sim.SimilarTokenPairs
	st.SimilarTokenCandidates = sim.SimilarTokenCandidates
	candidates := make([]uint64, 0, len(sharedCands)+len(simCands))
	candidates = append(append(candidates, sharedCands...), simCands...)

	// ---- Job 3: de-duplicate + filter + verify (Sec. III-E/F/G.3) -------
	// Every candidate is packed id-ascending, so a bipartite pair verifies
	// R side first and Result.A is always the R side.
	results = append(results, dedupVerify(candidates, ver, opts, engCfg, st)...)
	slices.SortFunc(results, func(x, y Result) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return results, st, nil
}

// lengthOrder lists the live strings sids (ascending ids) in (side,
// aggregate length, id) order, R before P, by a stable counting sort on
// side and length. It returns that order, each string's rank in it
// (indexed by string id) and the aggregate lengths by rank.
func lengthOrder(src *source, sids []token.StringID) (order []token.StringID, rank, lens []int32) {
	c := src.c
	maxLen := 0
	for _, s := range sids {
		maxLen = max(maxLen, c.Strings[s].AggregateLen())
	}
	key := func(s token.StringID) int {
		if src.split >= 0 && int(s) >= src.split {
			return maxLen + 1 + c.Strings[s].AggregateLen()
		}
		return c.Strings[s].AggregateLen()
	}
	next := make([]int, 2*maxLen+3) // next[k]: the next free rank for key k
	for _, s := range sids {
		next[key(s)+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	order, rank, lens = make([]token.StringID, len(sids)), make([]int32, c.NumStrings()), make([]int32, len(sids))
	for _, s := range sids {
		k := key(s)
		r := next[k]
		next[k]++
		order[r], rank[s], lens[r] = s, int32(r), int32(c.Strings[s].AggregateLen())
	}
	return order, rank, lens
}

// similarTokenCandidates runs the token-space NLD join (MassJoin) and
// expands each similar token pair through the postings lists into
// candidate string pairs (Sec. III-D). The expansion is fused into the
// next job's map phase: its cost is exactly the number of candidate
// records produced, which the dedup job's map accounting charges.
//
// post[0] and post[1] are the R-side and P-side postings, each in CSR
// form (one offsets array and one id array); in a self-join they are one
// table, and the token space is joined with itself under the symmetry
// optimization of Sec. III-G.1 instead of bipartite.
//
// pf applies the segment prefix filter: the postings are built over
// prefix membership only — post[s].list(t) lists the side-s strings whose
// threshold-derived prefix contains t — which restricts both the
// token-space NLD join (tokens in no prefix drop out of the joined
// space) and the expansion. Lossless: a qualifying pair whose only
// witness is a similar token pair shares no kept token, so its prefixes
// are untruncated and hold both witness carriers (prefilter.PrefixLen).
// Pairs that do share a kept token are Job 1's responsibility.
func similarTokenCandidates(src *source, pf *prefilter.Index, opts Options, st *Stats) []uint64 {
	c := src.c
	n, nt := c.NumStrings(), c.NumTokens()
	bipartite := src.split >= 0

	var segPruned int64
	for sid := 0; sid < n; sid++ {
		if s := token.StringID(sid); src.live(s) {
			segPruned += int64(pf.Distinct(s) - len(pf.Prefix(s)))
		}
	}
	st.SegPrefixPruned = segPruned
	var post [2]postings
	if bipartite {
		post[0], post[1] = newPostings(src, pf, 0, src.split), newPostings(src, pf, src.split, n)
	} else {
		post[0] = newPostings(src, pf, 0, n)
		post[1] = post[0]
	}

	// Compact each side's token space for the join to the tokens with a
	// posting on the side: prefixes hold only kept tokens of live strings,
	// so dropped tokens, tokens whose every containing string is deleted
	// and tokens in no prefix — which cannot produce candidates — stay out
	// of the NLD join.
	compact := func(p postings) (idx []token.TokenID, runes [][]rune) {
		idx = make([]token.TokenID, 0, nt)
		for tid := 0; tid < nt; tid++ {
			if len(p.list(token.TokenID(tid))) > 0 {
				idx = append(idx, token.TokenID(tid))
			}
		}
		runes = make([][]rune, len(idx))
		for i, tid := range idx {
			runes[i] = c.TokenRunes[tid]
		}
		return idx, runes
	}
	var idx [2][]token.TokenID
	var runes [2][][]rune
	idx[0], runes[0] = compact(post[0])
	idx[1], runes[1] = idx[0], runes[0]
	if bipartite {
		idx[1], runes[1] = compact(post[1])
	}

	mjCfg := massjoin.Config{
		MultiMatchAware: true,
		MapTasks:        opts.MapTasks,
		Parallelism:     opts.Parallelism,
		NamePrefix:      "tsj-similar-token",
	}
	var pairs []passjoin.Pair
	var pipe *mapreduce.Pipeline
	if bipartite {
		pairs, pipe = massjoin.JoinNLD(runes[0], runes[1], opts.Threshold, mjCfg)
	} else {
		pairs, pipe = massjoin.SelfJoinNLD(runes[0], opts.Threshold, mjCfg)
	}
	st.Pipeline.Merge(pipe)
	st.SimilarTokenPairs = int64(len(pairs))

	// Combiner: collapse duplicate candidates at expansion time (the
	// standard MapReduce combiner optimization). The dedup job still runs
	// — hot postings overlap heavily, and pre-collapsing keeps the
	// shuffled record count proportional to the distinct pair count. The
	// expansion is collected into one slice, sized by the product of the
	// posting lengths, then sorted and compacted; SimilarTokenCandidates
	// counts it before the collapse.
	size := 0
	for _, p := range pairs {
		if ta, tb := idx[0][p.A], idx[1][p.B]; ta != tb {
			size += len(post[0].list(ta)) * len(post[1].list(tb))
		}
	}
	cands := make([]uint64, 0, size)
	for _, p := range pairs {
		ta, tb := idx[0][p.A], idx[1][p.B]
		if ta == tb {
			continue // the identical token on both sides: covered by Job 1
		}
		for _, sa := range post[0].list(ta) {
			for _, sb := range post[1].list(tb) {
				if sa != sb {
					cands = append(cands, pairKey(normPair(sa, sb)))
				}
			}
		}
	}
	st.SimilarTokenCandidates = int64(len(cands))
	slices.Sort(cands)
	return slices.Compact(cands)
}

// postings is one side's prefix postings in CSR form: the strings whose
// threshold-derived prefix holds token t are ids[off[t]:off[t+1]], in
// ascending id order.
type postings struct {
	off []int32
	ids []token.StringID
}

// newPostings inverts the prefixes of the live strings with ids in
// [lo, hi): a pass counting each token's postings, a prefix sum, and a
// pass filling them in.
func newPostings(src *source, pf *prefilter.Index, lo, hi int) postings {
	nt := src.c.NumTokens()
	p := postings{off: make([]int32, nt+1)}
	for sid := lo; sid < hi; sid++ {
		if s := token.StringID(sid); src.live(s) {
			for _, tid := range pf.Prefix(s) {
				p.off[tid+1]++
			}
		}
	}
	for t := 1; t <= nt; t++ {
		p.off[t] += p.off[t-1]
	}
	p.ids = make([]token.StringID, p.off[nt])
	// off[t] is token t's fill cursor: once every posting is placed it
	// has advanced to where token t+1 starts, and one shift restores it.
	for sid := lo; sid < hi; sid++ {
		if s := token.StringID(sid); src.live(s) {
			for _, tid := range pf.Prefix(s) {
				p.ids[p.off[tid]] = s
				p.off[tid]++
			}
		}
	}
	copy(p.off[1:], p.off[:nt])
	p.off[0] = 0
	return p
}

func (p *postings) list(t token.TokenID) []token.StringID {
	return p.ids[p.off[t]:p.off[t+1]]
}

// dedupVerify runs the final de-duplicate + filter + verify job on a raw
// candidate list and fills the verify funnel of st.
func dedupVerify(candidates []uint64, ver *verifier, opts Options,
	engCfg func(string) mapreduce.Config, st *Stats) []Result {
	var verified []Result
	var st3 *mapreduce.Stats
	switch opts.Dedup {
	case GroupOnBothStrings:
		// One reducer instance per candidate pair: the shuffle key is the
		// pair itself, so duplicates collapse into one group.
		verified, st3 = mapreduce.Run(engCfg("tsj-dedup-verify-bothstrings"), candidates,
			func(cand uint64, ctx *mapreduce.MapCtx[uint64, struct{}]) {
				ctx.Emit(cand, struct{}{})
			},
			func(k uint64, _ []struct{}, ctx *mapreduce.ReduceCtx[Result]) {
				a, b := unpackPair(k)
				ver.verifyKey(a, []token.StringID{b}, ctx)
			},
		)
	default: // GroupOnOneString
		// One reducer instance per string: the key side of each pair is
		// chosen by the hash-parity rule; the reducer de-duplicates its
		// partner list and verifies each partner.
		verified, st3 = mapreduce.Run(engCfg("tsj-dedup-verify-onestring"), candidates,
			func(cand uint64, ctx *mapreduce.MapCtx[token.StringID, token.StringID]) {
				a, b := unpackPair(cand)
				k, v := groupKey(a, b)
				ctx.Emit(k, v)
			},
			ver.verifyKey,
		)
	}
	ver.fold(st)
	st.Pipeline.Add(st3)

	st.DedupedCandidates = st.LengthPruned + st.LBPruned + st.Verified
	st.Results += st.EmptyStringPairs
	return verified
}
