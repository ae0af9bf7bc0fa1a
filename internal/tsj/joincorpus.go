package tsj

import (
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/massjoin"
	"repro/internal/prefilter"
	"repro/internal/token"
)

// JoinCorpus performs the bipartite NSLD join of a probe set against the
// live strings of a persistent corpus, reusing the corpus's stored
// filter state for its side of the join instead of rebuilding any of it
// (the bipartite counterpart of SelfJoinCorpus):
//
//   - the corpus side's token document frequencies are read from the
//     corpus; the probe side's are counted in one pass over the probes
//     (so the MaxTokenFreq cutoff sees exactly the combined frequencies
//     a from-scratch Join would compute);
//   - the combined prefix order extends the corpus's epoch-stamped
//     rarest-first order with probe-only tokens at its tail — any fixed
//     total order is lossless (prefilter.NewIndexFromRanked), so the
//     stored order serves unchanged and only the probes' member lists
//     are rank-sorted;
//   - the similar-token expansion walks the corpus's stored inverted
//     postings for the corpus side (prefix-restricted postings are
//     re-derived only when the segment prefix filter is on, as in
//     SelfJoinCorpus).
//
// Results are exactly Join's over (live corpus strings, probes):
// Result.A is a corpus StringID, Result.B indexes probes. Tombstoned
// corpus strings neither generate nor receive.
func JoinCorpus(pc *corpus.Corpus, probes []token.TokenizedString, opts Options) ([]Result, *Stats, error) {
	if opts.Threshold < 0 || opts.Threshold >= 1 {
		return nil, nil, errors.New("tsj: threshold must be in [0, 1)")
	}
	v := pc.View()
	pc.NoteJoin()
	cc := v.TC
	n := cc.NumStrings()
	nt := cc.NumTokens()
	nr := token.StringID(n)
	st := &Stats{}

	// ---- Combined view ---------------------------------------------------
	// Corpus strings keep their ids and token ids; probes occupy
	// [n, n+m) with probe-only tokens interned at the tail of the token
	// space. Probe member lists iterate the sorted token multiset, so the
	// lexicographic-member-order invariant of NewCorpusView holds.
	m := len(probes)
	strs := make([]token.TokenizedString, n+m)
	copy(strs, cc.Strings)
	copy(strs[n:], probes)
	tokens := append(make([]string, 0, nt), cc.Tokens...)
	tokenRunes := append(make([][]rune, 0, nt), cc.TokenRunes...)
	freq := append(make([]int32, 0, nt), cc.Freq...)
	members := make([][]token.TokenID, n+m)
	copy(members, cc.Members)
	extra := make(map[string]token.TokenID)
	for i := range probes {
		ts := &strs[n+i]
		mem := make([]token.TokenID, 0, ts.Count())
		for j, tok := range ts.Tokens {
			if j > 0 && tok == ts.Tokens[j-1] {
				continue
			}
			id, ok := cc.TokenIDOf(tok)
			if !ok {
				id, ok = extra[tok]
				if !ok {
					id = token.TokenID(len(tokens))
					extra[tok] = id
					tokens = append(tokens, tok)
					tokenRunes = append(tokenRunes, []rune(tok))
					freq = append(freq, 0)
				}
			}
			mem = append(mem, id)
			freq[id]++
		}
		members[n+i] = mem
	}
	c := token.NewCorpusView(strs, tokens, tokenRunes, freq, members)

	ver := newVerifier(c, opts)
	engCfg := func(name string) mapreduce.Config {
		return mapreduce.Config{Name: name, MapTasks: opts.MapTasks, Parallelism: opts.Parallelism}
	}

	// Token cutoff over the combined frequencies (corpus live + probe) —
	// the stored equivalent of Join's Job 0.
	dropped := make([]bool, len(tokens))
	if opts.MaxTokenFreq > 0 {
		for tid, f := range freq {
			if int(f) > opts.MaxTokenFreq {
				dropped[tid] = true
				st.DroppedTokens++
			}
		}
	}
	st.KeptTokens = len(tokens) - st.DroppedTokens

	// Live ids: alive corpus strings plus every probe.
	alive := make([]bool, n+m)
	copy(alive, v.Alive)
	for i := n; i < n+m; i++ {
		alive[i] = true
	}
	sids := make([]token.StringID, 0, v.Live+m)
	for i := range alive {
		if alive[i] {
			sids = append(sids, token.StringID(i))
		}
	}

	// Preamble: token-less strings pair across the sides at NSLD 0.
	var results []Result
	var emptyR, emptyP []token.StringID
	for _, sid := range sids {
		if len(members[sid]) == 0 {
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

	// ---- Job 1: shared-token candidates from the stored order ------------
	wantShared, wantSeg := prefixFilterWants(opts)
	var pf, pfSeg *prefilter.Index
	if wantShared || wantSeg {
		// Extend the stored rank with tail ranks for probe-only tokens
		// (first-appearance order — deterministic for a given probe set).
		rank := make([]int32, len(tokens))
		next := int32(0)
		for tid, r := range v.Rank {
			rank[tid] = r
			if r >= next {
				next = r + 1
			}
		}
		for tid := nt; tid < len(tokens); tid++ {
			rank[tid] = next
			next++
		}
		ranked := make([][]token.TokenID, n+m)
		copy(ranked, v.Ranked)
		for i := n; i < n+m; i++ {
			rl := append([]token.TokenID(nil), members[i]...)
			sort.Slice(rl, func(a, b int) bool { return rank[rl[a]] < rank[rl[b]] })
			ranked[i] = rl
		}
		ix := prefilter.NewIndexFromRanked(c, dropped, rank, ranked, alive, opts.Threshold)
		if wantShared {
			pf = ix
		}
		if wantSeg {
			pfSeg = ix
		}
	}
	var prefixPruned atomic.Int64
	sharedCands, st1 := mapreduce.Run(engCfg("tsj-joincorpus-shared-token"), sids,
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
			for _, val := range vals {
				if val < nr {
					left = append(left, val)
				} else {
					right = append(right, val)
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

	// ---- Jobs 2a+2b: similar-token candidates over stored postings ------
	if opts.Matching == FuzzyTokenMatching {
		similar := similarTokenCandidatesCorpusProbe(c, nr, dropped, v.Postings, alive, pfSeg, opts, st)
		candidates = append(candidates, similar...)
	}

	// ---- Job 3: de-duplicate + filter + verify ---------------------------
	// Every candidate is cross-side with the corpus id low, so verify
	// orientation matches Join's (id-ascending) and Result.A is always
	// the corpus side.
	verified := dedupVerify("tsj", candidates, ver, opts, engCfg, st)

	results = append(results, verified...)
	for i := range results {
		results[i].B -= nr // probe side re-based to a probes index
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].A != results[j].A {
			return results[i].A < results[j].A
		}
		return results[i].B < results[j].B
	})
	return results, st, nil
}

// similarTokenCandidatesCorpusProbe is the bipartite counterpart of
// similarTokenCandidatesPostings: the corpus-side token space joins the
// probe-side token space with the bipartite MassJoin, and similar token
// pairs expand through the corpus's STORED inverted postings on the
// corpus side (built fresh only for the probes). Stored posting entries
// may reference tombstoned or post-capture ids, so the expansion bounds
// them to the capture's id space and filters by the alive mask. With the
// segment prefix filter on, both sides' postings are instead re-derived
// from prefix membership, exactly as in the self-join (the losslessness
// argument is similarTokenCandidatesPostings's, with Job 1's bipartite
// reducers owning every shared-kept-token pair).
func similarTokenCandidatesCorpusProbe(c *token.Corpus, nr token.StringID, dropped []bool,
	corpusPostings [][]token.StringID, alive []bool, pfSeg *prefilter.Index, opts Options, st *Stats) []uint64 {
	total := c.NumTokens()
	// skipCorpus filters stored corpus-side posting entries: ids at or
	// past the capture boundary (post-capture appends) and tombstones.
	skipCorpus := func(sid token.StringID) bool {
		return sid >= nr || !alive[sid]
	}
	postR := make([][]token.StringID, total)
	postP := make([][]token.StringID, total)
	if pfSeg != nil {
		var pruned int64
		for sid := range c.Members {
			s := token.StringID(sid)
			if !alive[sid] {
				continue
			}
			pref := pfSeg.Prefix(s)
			pruned += int64(pfSeg.Distinct(s) - len(pref))
			for _, tid := range pref {
				if s < nr {
					postR[tid] = append(postR[tid], s)
				} else {
					postP[tid] = append(postP[tid], s)
				}
			}
		}
		st.SegPrefixPruned = pruned
	} else {
		for tid := 0; tid < len(corpusPostings) && tid < total; tid++ {
			postR[tid] = corpusPostings[tid]
		}
		for sid := int(nr); sid < len(c.Members); sid++ {
			for _, tid := range c.Members[sid] {
				postP[tid] = append(postP[tid], token.StringID(sid))
			}
		}
	}

	// Token spaces per side (kept tokens with postings on that side). A
	// stored corpus-side list whose entries are all dead only costs NLD
	// work — its expansions are filtered out below.
	var rIdx, pIdx []token.TokenID
	var rRunes, pRunes [][]rune
	for tid := 0; tid < total; tid++ {
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
		NamePrefix:      "tsj-joincorpus-similar-token",
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
			if skipCorpus(sa) {
				continue
			}
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
