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
// SelfJoinCorpus). It takes a point-in-time view of the corpus grown with
// the probes (corpus.View): they take ids [n, n+len(probes)), their new
// tokens are interned at the tail of the token space, and the view's
// frequencies count them beside the live corpus strings. So the
// MaxTokenFreq cutoff and the prefix order see exactly the combined
// frequencies a from-scratch Join reads from BuildCorpus.
//
// Results are exactly Join's over (live corpus strings, probes):
// Result.A is a corpus StringID, Result.B indexes probes. Tombstoned
// corpus strings neither generate nor receive.
func JoinCorpus(pc *corpus.Corpus, probes []token.TokenizedString, opts Options) ([]Result, *Stats, error) {
	v := pc.View(probes...)
	n := v.TC.NumStrings() - len(probes)
	results, st, err := run(&source{c: v.TC, alive: v.Alive, split: n}, opts)
	if err != nil {
		return nil, nil, err
	}
	pc.NoteJoin()
	for i := range results {
		results[i].B -= token.StringID(n) // probe side re-based to a probes index
	}
	return results, st, nil
}
