package tsj

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/massjoin"
	"repro/internal/prefilter"
	"repro/internal/token"
)

// SelfJoin performs the NSLD self-join of a corpus: it returns every
// unordered pair (A < B) of tokenized strings with NSLD <= opts.Threshold
// that the configured strategies discover, plus full pipeline statistics.
//
// With FuzzyTokenMatching, Hungarian alignment and unlimited MaxTokenFreq
// the join is exact (Theorem 3 guarantees candidate completeness; the
// filters are lossless). The approximations only ever lose recall —
// precision is always 1.0 because every emitted pair was verified.
func SelfJoin(c *token.Corpus, opts Options) ([]Result, *Stats, error) {
	if opts.Threshold < 0 || opts.Threshold >= 1 {
		return nil, nil, errors.New("tsj: threshold must be in [0, 1)")
	}
	st := &Stats{}
	ver := newVerifier(c, opts)
	engCfg := func(name string) mapreduce.Config {
		return mapreduce.Config{Name: name, MapTasks: opts.MapTasks, Parallelism: opts.Parallelism}
	}

	// All string ids, the universal job input.
	sids := make([]token.StringID, c.NumStrings())
	for i := range sids {
		sids[i] = token.StringID(i)
	}

	// ---- Job 0: token document frequencies (Sec. III-G.2) ---------------
	// Computes freq(token) = #strings containing it and marks tokens above
	// the cutoff M as dropped.
	type tokenFreq struct {
		id   token.TokenID
		freq int
	}
	freqs, st0 := mapreduce.Run(engCfg("tsj-token-freq"), sids,
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
	maxFreq := opts.MaxTokenFreq
	for _, tf := range freqs {
		if maxFreq > 0 && tf.freq > maxFreq {
			dropped[tf.id] = true
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
	for i := 0; i < len(empties); i++ {
		for j := i + 1; j < len(empties); j++ {
			results = append(results, Result{A: empties[i], B: empties[j]})
			st.EmptyStringPairs++
		}
	}

	// ---- Job 1: shared-token candidate generation (Sec. III-C) ----------
	// map: r^t_s -> [<r^ti_s, r^t_s>]; reduce on token z: all pairs.
	//
	// With the prefix filter (default), the map ships only each string's
	// threshold-derived prefix — its MaxErrors(T, L)+1 rarest kept tokens
	// under the global frequency order — and the reducer emits a pair only
	// from its first common prefix token, after the positional and length
	// filters prove the pair can still satisfy NSLD <= T. Lossless: see
	// the prefilter package for the argument.
	// The prefix index serves both filters: Job 1's first-common-token
	// rule and Job 2's segment prefix restriction (prefixFilterWants).
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
	sharedCands, st1 := mapreduce.Run(engCfg("tsj-shared-token"), sids,
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
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			var pruned int64
			for i := 0; i < len(vals); i++ {
				for j := i + 1; j < len(vals); j++ {
					if pf != nil {
						emit, prn := pf.Admit(tid, vals[i], vals[j])
						if !emit {
							if prn {
								pruned++
							}
							continue
						}
					}
					ctx.Emit(pairKey(vals[i], vals[j]))
				}
			}
			if pruned > 0 {
				prefixPruned.Add(pruned)
			}
			// Quadratic pair enumeration beyond the default linear charge.
			n := float64(len(vals))
			ctx.AddCost(n * n * 0.05)
		},
	)
	st.Pipeline.Add(st1)
	st.SharedTokenCandidates = int64(len(sharedCands))
	st.PrefixPruned = prefixPruned.Load()
	candidates := sharedCands

	// ---- Jobs 2a+2b: similar-token candidates (Sec. III-D) --------------
	if opts.Matching == FuzzyTokenMatching {
		similar := similarTokenCandidates(c, dropped, pfSeg, opts, st)
		candidates = append(candidates, similar...)
	}

	// ---- Job 3: de-duplicate + filter + verify (Sec. III-E/F/G.3) -------
	verified := dedupVerify("tsj", candidates, ver, opts, engCfg, st)

	results = append(results, verified...)
	sort.Slice(results, func(i, j int) bool {
		if results[i].A != results[j].A {
			return results[i].A < results[j].A
		}
		return results[i].B < results[j].B
	})
	return results, st, nil
}

// dedupVerify runs the final de-duplicate + filter + verify job on a raw
// candidate list and fills the verify funnel of st. Shared by every
// join pipeline; jobPrefix names the job ("<jobPrefix>-dedup-verify-...").
func dedupVerify(jobPrefix string, candidates []uint64, ver *verifier, opts Options,
	engCfg func(string) mapreduce.Config, st *Stats) []Result {
	var verified []Result
	var st3 *mapreduce.Stats
	switch opts.Dedup {
	case GroupOnBothStrings:
		// One reducer instance per candidate pair: the shuffle key is the
		// pair itself, so duplicates collapse into one group.
		verified, st3 = mapreduce.Run(engCfg(jobPrefix+"-dedup-verify-bothstrings"), candidates,
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
		verified, st3 = mapreduce.Run(engCfg(jobPrefix+"-dedup-verify-onestring"), candidates,
			func(cand uint64, ctx *mapreduce.MapCtx[token.StringID, token.StringID]) {
				a, b := unpackPair(cand)
				k, v := groupKey(a, b)
				ctx.Emit(k, v)
			},
			ver.verifyKey,
		)
	}
	// Staged results come back from the drain, past the reducers' emit
	// windows. The job is charged what it would have been had they been
	// emitted inside: the drain's wall time is verify time, and the
	// engine's one unit per output keeps the job's work the same whether
	// or not the kernel is live. (Which key a staged result belongs to is
	// not tracked, so ReduceTaskCosts lack that unit under staging.)
	drainStart := time.Now()
	staged := ver.drain(st)
	drainWall := time.Since(drainStart)
	verified = append(verified, staged...)
	st3.WallTime += drainWall
	st3.ReduceWall += drainWall
	st3.OutRecords += int64(len(staged))
	st3.ReduceWork += float64(len(staged))
	st.Pipeline.Add(st3)

	st.DedupedCandidates = st.LengthPruned + st.LBPruned + st.Verified
	st.Results += st.EmptyStringPairs
	return verified
}

// similarTokenCandidates runs the token-space NLD join (MassJoin) and
// expands each similar token pair through the postings lists into
// candidate string pairs (Sec. III-D). The expansion is fused into the
// next job's map phase: its cost is exactly the number of candidate
// records produced, which the dedup job's map accounting charges.
func similarTokenCandidates(c *token.Corpus, dropped []bool, pfSeg *prefilter.Index, opts Options, st *Stats) []uint64 {
	return similarTokenCandidatesPostings(c, dropped, nil, nil, pfSeg, opts, st)
}

// similarTokenCandidatesPostings is similarTokenCandidates with
// externally maintained postings (the persistent corpus's inverted
// index) and an alive mask for tombstoned strings. postings == nil
// rebuilds them from the member lists; alive == nil means every string
// is live. Externally maintained posting lists may contain tombstoned
// ids and ids minted after the caller's view was captured — both are
// filtered here.
//
// pfSeg, when non-nil, applies the segment prefix filter: the postings
// are rebuilt over prefix membership only — postings[t] lists the
// strings whose threshold-derived prefix contains t — which restricts
// both the token-space NLD join (tokens in no prefix drop out of the
// joined space) and the expansion. Lossless: a qualifying pair whose
// only witness is a similar token pair shares no kept token, so both
// strings' kept-distinct counts are within their SLD budgets and their
// prefixes are their entire kept-distinct sets
// (prefilter.SegmentPrefixLen) — both witness carriers are prefix
// members. Pairs that do share a kept token are Job 1's responsibility.
func similarTokenCandidatesPostings(c *token.Corpus, dropped []bool,
	postings [][]token.StringID, alive []bool, pfSeg *prefilter.Index, opts Options, st *Stats) []uint64 {
	if pfSeg != nil {
		pp := make([][]token.StringID, c.NumTokens())
		var pruned int64
		for sid := range c.Members {
			s := token.StringID(sid)
			if alive != nil && (sid >= len(alive) || !alive[sid]) {
				continue
			}
			pref := pfSeg.Prefix(s)
			pruned += int64(pfSeg.Distinct(s) - len(pref))
			for _, tid := range pref {
				pp[tid] = append(pp[tid], s)
			}
		}
		st.SegPrefixPruned = pruned
		postings = pp
	}
	// Compact the kept token space for the join. Tokens whose live
	// document frequency reached zero (every containing string deleted)
	// cannot produce candidates — and, under the segment prefix filter,
	// tokens in no prefix cannot either; skipping both keeps the NLD join
	// off dead token space.
	keptIdx := make([]token.TokenID, 0, c.NumTokens())
	keptRunes := make([][]rune, 0, c.NumTokens())
	for tid := 0; tid < c.NumTokens(); tid++ {
		if !dropped[tid] && c.Freq[tid] > 0 {
			if pfSeg != nil && len(postings[tid]) == 0 {
				continue
			}
			keptIdx = append(keptIdx, token.TokenID(tid))
			keptRunes = append(keptRunes, c.TokenRunes[tid])
		}
	}

	mjCfg := massjoin.Config{
		MultiMatchAware: opts.MultiMatchAware,
		MapTasks:        opts.MapTasks,
		Parallelism:     opts.Parallelism,
		NamePrefix:      "tsj-similar-token",
	}
	pairs, pipe := massjoin.SelfJoinNLD(keptRunes, opts.Threshold, mjCfg)
	st.Pipeline.Merge(pipe)
	st.SimilarTokenPairs = int64(len(pairs))

	if postings == nil {
		// Postings: token -> string ids containing it (inverted Members).
		postings = make([][]token.StringID, c.NumTokens())
		for sid, mem := range c.Members {
			for _, tid := range mem {
				postings[tid] = append(postings[tid], token.StringID(sid))
			}
		}
	}
	skip := func(sid token.StringID) bool {
		return alive != nil && (int(sid) >= len(alive) || !alive[sid])
	}

	// Combiner: collapse duplicate candidates at expansion time (the
	// standard MapReduce combiner optimization). The dedup job still runs
	// — hot postings overlap heavily, and pre-collapsing keeps the
	// shuffled record count proportional to the distinct pair count.
	seen := make(map[uint64]struct{})
	var cands []uint64
	var raw int64
	for _, p := range pairs {
		ta, tb := keptIdx[p.A], keptIdx[p.B]
		for _, sa := range postings[ta] {
			if skip(sa) {
				continue
			}
			for _, sb := range postings[tb] {
				if sa == sb || skip(sb) {
					continue
				}
				a, b := normPair(sa, sb)
				raw++
				k := pairKey(a, b)
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
