package tsj

import (
	"errors"
	"sort"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/prefilter"
	"repro/internal/token"
)

// SelfJoinCorpus performs the NSLD self-join of a persistent corpus,
// reusing its stored filter state instead of rebuilding any of it:
//
//   - token document frequencies are read from the corpus (no
//     token-frequency job);
//   - the global rarest-first order and the per-string rank-sorted member
//     lists come from the corpus's epoch-stamped incremental maintenance,
//     and the threshold's prefixes are sliced from them
//     (prefilter.NewIndexFromRanked) — no global sort, no per-string
//     sort;
//   - the similar-token expansion walks the corpus's inverted postings.
//
// Consequently repeated joins at different thresholds on one opened
// corpus perform zero frequency-order rebuilds (corpus
// Stats.OrderRebuilds is untouched by joins — only Adds can re-rank),
// which is the property TestSelfJoinCorpusZeroRebuilds asserts.
//
// Results are exactly SelfJoin's over the live (non-deleted) strings,
// with the corpus's StringIDs: the prefix filter is lossless under any
// fixed total order (see prefilter.NewIndexFromRanked), so even a
// maximally stale stored order — frequencies drifted arbitrarily far
// since the last re-rank — changes nothing but pruning power
// (TestPrefixEquivalenceStaleCorpusOrder is the property test).
func SelfJoinCorpus(pc *corpus.Corpus, opts Options) ([]Result, *Stats, error) {
	if opts.Threshold < 0 || opts.Threshold >= 1 {
		return nil, nil, errors.New("tsj: threshold must be in [0, 1)")
	}
	v := pc.View()
	pc.NoteJoin()
	c := v.TC
	st := &Stats{}
	ver := newVerifier(c, opts)
	engCfg := func(name string) mapreduce.Config {
		return mapreduce.Config{Name: name, MapTasks: opts.MapTasks, Parallelism: opts.Parallelism}
	}

	// Live string ids only: tombstones neither generate nor receive.
	sids := make([]token.StringID, 0, v.Live)
	for i := range v.Alive {
		if v.Alive[i] {
			sids = append(sids, token.StringID(i))
		}
	}

	// Token cutoff from the corpus's maintained live frequencies — the
	// stored equivalent of Job 0.
	var dropped []bool
	if c.NumTokens() > 0 {
		dropped = make([]bool, c.NumTokens())
	}
	if opts.MaxTokenFreq > 0 {
		for tid, f := range c.Freq {
			if int(f) > opts.MaxTokenFreq {
				dropped[tid] = true
				st.DroppedTokens++
			}
		}
	}
	st.KeptTokens = c.NumTokens() - st.DroppedTokens

	// Preamble: pairs of live token-less strings (NSLD 0).
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

	// ---- Job 1: shared-token candidates from stored prefixes ------------
	// As in SelfJoin, one prefix index serves both Job 1 and Job 2's
	// segment prefix restriction (prefixFilterWants) — here sliced from
	// the corpus's stored epoch-stamped order with zero sorts.
	wantShared, wantSeg := prefixFilterWants(opts)
	var pf, pfSeg *prefilter.Index
	if wantShared || wantSeg {
		ix := prefilter.NewIndexFromRanked(c, dropped, v.Rank, v.Ranked, v.Alive, opts.Threshold)
		if wantShared {
			pf = ix
		}
		if wantSeg {
			pfSeg = ix
		}
	}
	var prefixPruned atomic.Int64
	sharedCands, st1 := mapreduce.Run(engCfg("tsj-corpus-shared-token"), sids,
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
			n := float64(len(vals))
			ctx.AddCost(n * n * 0.05)
		},
	)
	st.Pipeline.Add(st1)
	st.SharedTokenCandidates = int64(len(sharedCands))
	st.PrefixPruned = prefixPruned.Load()
	candidates := sharedCands

	// ---- Jobs 2a+2b: similar-token candidates over stored postings ------
	if opts.Matching == FuzzyTokenMatching {
		similar := similarTokenCandidatesPostings(c, dropped, v.Postings, v.Alive, pfSeg, opts, st)
		candidates = append(candidates, similar...)
	}

	// ---- Job 3: de-duplicate + filter + verify ---------------------------
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
