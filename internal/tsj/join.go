package tsj

import (
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/mapreduce"
	"repro/internal/massjoin"
	"repro/internal/prefilter"
	"repro/internal/token"
)

// Join performs the bipartite NSLD join of the paper's problem statement
// (Sec. II-B): given R and P as one combined corpus whose first boundary
// strings are R and the rest are P, it returns every pair
// (A ∈ [0, boundary), B ∈ [boundary, n)) with NSLD <= opts.Threshold.
// Result.B is reported relative to the combined corpus (subtract boundary
// for a P-relative index).
//
// The pipeline is the self-join's with cross-side candidate enumeration:
// shared-token reducers pair R-side with P-side postings, and the
// similar-token expansion keeps only cross-side pairs. The self-join
// symmetry optimization (Sec. III-G.1) does not apply; the token-space
// NLD join runs bipartite over the two sides' token spaces.
func Join(combined *token.Corpus, boundary int, opts Options) ([]Result, *Stats, error) {
	if opts.Threshold < 0 || opts.Threshold >= 1 {
		return nil, nil, errors.New("tsj: threshold must be in [0, 1)")
	}
	if boundary < 0 || boundary > combined.NumStrings() {
		return nil, nil, errors.New("tsj: boundary out of range")
	}
	c := combined
	nr := token.StringID(boundary)
	st := &Stats{}
	ver := newVerifier(c, opts)
	engCfg := func(name string) mapreduce.Config {
		return mapreduce.Config{Name: name, MapTasks: opts.MapTasks, Parallelism: opts.Parallelism}
	}

	sids := make([]token.StringID, c.NumStrings())
	for i := range sids {
		sids[i] = token.StringID(i)
	}

	// ---- Job 0: token document frequencies ------------------------------
	type tokenFreq struct {
		id   token.TokenID
		freq int
	}
	freqs, st0 := mapreduce.Run(engCfg("tsj-join-token-freq"), sids,
		func(sid token.StringID, ctx *mapreduce.MapCtx[token.TokenID, struct{}]) {
			for _, tid := range c.Members[sid] {
				ctx.Emit(tid, struct{}{})
			}
		},
		func(tid token.TokenID, vals []struct{}, ctx *mapreduce.ReduceCtx[tokenFreq]) {
			ctx.Emit(tokenFreq{tid, len(vals)})
		},
	)
	st.Pipeline.Add(st0)

	dropped := make([]bool, c.NumTokens())
	for _, tf := range freqs {
		if opts.MaxTokenFreq > 0 && tf.freq > opts.MaxTokenFreq {
			dropped[tf.id] = true
			st.DroppedTokens++
		}
	}
	st.KeptTokens = c.NumTokens() - st.DroppedTokens

	// Preamble: token-less strings pair across the boundary at NSLD 0.
	var results []Result
	var emptyR, emptyP []token.StringID
	for _, sid := range sids {
		if len(c.Members[sid]) == 0 {
			if sid < nr {
				emptyR = append(emptyR, sid)
			} else {
				emptyP = append(emptyP, sid)
			}
		}
	}
	for _, a := range emptyR {
		for _, b := range emptyP {
			results = append(results, Result{A: a, B: b})
			st.EmptyStringPairs++
		}
	}

	// ---- Job 1: shared-token candidates ---------------------------------
	// Prefix-filtered exactly like the self-join's: prefixes are computed
	// over the combined corpus, and the first-common-token rule plus the
	// positional/length filters apply to each cross-side pair.
	wantShared, wantSeg := prefixFilterWants(opts)
	var pf, pfSeg *prefilter.Index
	if wantShared || wantSeg {
		ix := prefilter.NewIndex(c, dropped, opts.Threshold)
		if wantShared {
			pf = ix
		}
		if wantSeg {
			pfSeg = ix
		}
	}
	var prefixPruned atomic.Int64
	sharedCands, st1 := mapreduce.Run(engCfg("tsj-join-shared-token"), sids,
		func(sid token.StringID, ctx *mapreduce.MapCtx[token.TokenID, token.StringID]) {
			if pf != nil {
				for _, tid := range pf.Prefix(sid) {
					ctx.Emit(tid, sid)
				}
				return
			}
			for _, tid := range c.Members[sid] {
				if !dropped[tid] {
					ctx.Emit(tid, sid)
				}
			}
		},
		func(tid token.TokenID, vals []token.StringID, ctx *mapreduce.ReduceCtx[uint64]) {
			var left, right []token.StringID
			for _, v := range vals {
				if v < nr {
					left = append(left, v)
				} else {
					right = append(right, v)
				}
			}
			sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
			sort.Slice(right, func(i, j int) bool { return right[i] < right[j] })
			var pruned int64
			for _, a := range left {
				for _, b := range right {
					if pf != nil {
						emit, prn := pf.Admit(tid, a, b)
						if !emit {
							if prn {
								pruned++
							}
							continue
						}
					}
					ctx.Emit(pairKey(a, b))
				}
			}
			if pruned > 0 {
				prefixPruned.Add(pruned)
			}
			ctx.AddCost(float64(len(left)) * float64(len(right)) * 0.05)
		},
	)
	st.Pipeline.Add(st1)
	st.SharedTokenCandidates = int64(len(sharedCands))
	st.PrefixPruned = prefixPruned.Load()
	candidates := sharedCands

	// ---- Jobs 2a+2b: similar-token candidates ----------------------------
	if opts.Matching == FuzzyTokenMatching {
		candidates = append(candidates, similarTokenCandidatesBipartite(c, nr, dropped, pfSeg, opts, st)...)
	}

	// ---- Job 3: dedup + filter + verify ----------------------------------
	verified := dedupVerify("tsj-join", candidates, ver, opts, engCfg, st)

	results = append(results, verified...)
	sort.Slice(results, func(i, j int) bool {
		if results[i].A != results[j].A {
			return results[i].A < results[j].A
		}
		return results[i].B < results[j].B
	})
	return results, st, nil
}

// similarTokenCandidatesBipartite NLD-joins the R-side token space against
// the P-side token space with the bipartite MassJoin, then expands similar
// token pairs through cross-side postings. pfSeg, when non-nil, restricts
// both sides' postings to prefix membership (see
// similarTokenCandidatesPostings for the losslessness argument — the
// cross-side case is identical, with Job 1's bipartite reducers owning
// every shared-kept-token pair).
func similarTokenCandidatesBipartite(c *token.Corpus, nr token.StringID, dropped []bool, pfSeg *prefilter.Index, opts Options, st *Stats) []uint64 {
	// Postings split by side; a token may have postings on both.
	postR := make([][]token.StringID, c.NumTokens())
	postP := make([][]token.StringID, c.NumTokens())
	var segPruned int64
	for sid, mem := range c.Members {
		list := mem
		if pfSeg != nil {
			list = pfSeg.Prefix(token.StringID(sid))
			segPruned += int64(pfSeg.Distinct(token.StringID(sid)) - len(list))
		}
		for _, tid := range list {
			if token.StringID(sid) < nr {
				postR[tid] = append(postR[tid], token.StringID(sid))
			} else {
				postP[tid] = append(postP[tid], token.StringID(sid))
			}
		}
	}
	if pfSeg != nil {
		st.SegPrefixPruned = segPruned
	}

	// Token spaces per side (kept tokens that occur on that side).
	var rIdx, pIdx []token.TokenID
	var rRunes, pRunes [][]rune
	for tid := 0; tid < c.NumTokens(); tid++ {
		if dropped[tid] {
			continue
		}
		if len(postR[tid]) > 0 {
			rIdx = append(rIdx, token.TokenID(tid))
			rRunes = append(rRunes, c.TokenRunes[tid])
		}
		if len(postP[tid]) > 0 {
			pIdx = append(pIdx, token.TokenID(tid))
			pRunes = append(pRunes, c.TokenRunes[tid])
		}
	}

	mjCfg := massjoin.Config{
		MultiMatchAware: opts.MultiMatchAware,
		MapTasks:        opts.MapTasks,
		Parallelism:     opts.Parallelism,
		NamePrefix:      "tsj-join-similar-token",
	}
	pairs, pipe := massjoin.JoinNLD(rRunes, pRunes, opts.Threshold, mjCfg)
	st.Pipeline.Merge(pipe)
	st.SimilarTokenPairs = int64(len(pairs))

	// Combiner: collapse duplicate candidates at expansion time (see the
	// self-join counterpart for the rationale).
	seen := make(map[uint64]struct{})
	var cands []uint64
	var raw int64
	for _, p := range pairs {
		ta, tb := rIdx[p.A], pIdx[p.B]
		if ta == tb {
			// The identical token on both sides: covered by Job 1.
			continue
		}
		for _, sa := range postR[ta] {
			for _, sb := range postP[tb] {
				raw++
				k := pairKey(sa, sb)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				cands = append(cands, k)
			}
		}
	}
	st.SimilarTokenCandidates = raw
	return cands
}
