package tsj

import (
	"repro/internal/corpus"
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
	v := pc.View()
	results, st, err := run(&source{
		c: v.TC, alive: v.Alive, split: -1, storedFreq: true,
		rank: v.Rank, ranked: v.Ranked, postings: v.Postings,
	}, opts)
	if err == nil {
		pc.NoteJoin()
	}
	return results, st, err
}

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
//     postings for the corpus side and inverts only the probes'
//     (prefix-restricted postings are re-derived only when the segment
//     prefix filter is on, as in SelfJoinCorpus).
//
// Results are exactly Join's over (live corpus strings, probes):
// Result.A is a corpus StringID, Result.B indexes probes. Tombstoned
// corpus strings neither generate nor receive.
func JoinCorpus(pc *corpus.Corpus, probes []token.TokenizedString, opts Options) ([]Result, *Stats, error) {
	v := pc.View()
	cc := v.TC
	n, m := cc.NumStrings(), len(probes)
	nt := cc.NumTokens()

	// ---- Combined view ---------------------------------------------------
	// Corpus strings keep their ids and token ids; probes occupy
	// [n, n+m) with probe-only tokens interned at the tail of the token
	// space. Probe member lists iterate the sorted token multiset, so the
	// lexicographic-member-order invariant of NewCorpusView holds.
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

	// Live ids: alive corpus strings plus every probe.
	alive := make([]bool, n+m)
	copy(alive, v.Alive)
	for i := n; i < n+m; i++ {
		alive[i] = true
	}

	// Extend the stored rank with tail ranks for probe-only tokens
	// (first-appearance order — deterministic for a given probe set), and
	// rank-sort the probes' member lists.
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
		token.SortByRank(rl, rank)
		ranked[i] = rl
	}

	results, st, err := run(&source{
		c:     token.NewCorpusView(strs, tokens, tokenRunes, freq, members),
		alive: alive, split: n, storedFreq: true,
		rank: rank, ranked: ranked, postings: v.Postings,
	}, opts)
	if err != nil {
		return nil, nil, err
	}
	pc.NoteJoin()
	for i := range results {
		results[i].B -= token.StringID(n) // probe side re-based to a probes index
	}
	return results, st, nil
}
