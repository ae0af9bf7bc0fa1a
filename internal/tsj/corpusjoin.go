package tsj

import (
	"repro/internal/corpus"
	"repro/internal/token"
)

// SelfJoinCorpus performs the NSLD self-join of a persistent corpus's
// live strings. It runs the SelfJoin pipeline over a point-in-time view of
// the corpus, whose token document frequencies are the live strings'. The
// token cutoff reads them, and the prefix index derives its rarest-first
// order from them per join, exactly as SelfJoin's does.
//
// Results are exactly SelfJoin's over the live (non-deleted) strings,
// with the corpus's StringIDs.
func SelfJoinCorpus(pc *corpus.Corpus, opts Options) ([]Result, *Stats, error) {
	v := pc.View()
	results, st, err := run(&source{c: v.TC, alive: v.Alive, split: -1}, opts)
	if err == nil {
		pc.NoteJoin()
	}
	return results, st, err
}

// JoinCorpus performs the bipartite NSLD join of a probe set against the
// live strings of a persistent corpus (the bipartite counterpart of
// SelfJoinCorpus). The corpus side's token document frequencies are read
// from the corpus and the probe side's are counted in one pass over the
// probes, so the MaxTokenFreq cutoff and the prefix order see exactly the
// combined frequencies a from-scratch Join reads from BuildCorpus.
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

	results, st, err := run(&source{
		c:     token.NewCorpusView(strs, tokens, tokenRunes, freq, members),
		alive: alive, split: n,
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
