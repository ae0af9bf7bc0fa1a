// Package nsldtest is the test oracle of the NSLD joins: a naive
// all-pairs join that runs core.SLD (or core.SLDGreedy for the greedy
// aligner) on every pair and keeps the pairs core.WithinNSLD accepts. It
// has no index, no filter and no bounded verifier, so a bug in the
// pipelines' shared candidate, filter or verify code cannot also hide in
// the reference they are checked against. Cutoff is the same naive join
// restricted by the candidate rule of a finite token cutoff M and of
// exact-token matching, the reference for those configurations.
package nsldtest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/token"
)

// Hit is one oracle match: the partner's position and the verified
// distances. Its fields mirror stream.Match, so a Hit converts to one
// directly.
type Hit struct {
	ID   int
	SLD  int
	NSLD float64
}

// Matches returns every strs[j] within NSLD threshold t of x, in
// ascending j. Pass strs[:i] for the matches of arrival i against
// everything before it. greedy selects core.SLDGreedy, with x as its
// first argument, in place of the exact core.SLD.
func Matches(x token.TokenizedString, strs []token.TokenizedString, t float64, greedy bool) []Hit {
	var out []Hit
	for j, y := range strs {
		var sld int
		if greedy {
			sld = core.SLDGreedy(x, y)
		} else {
			sld = core.SLD(x, y)
		}
		if core.WithinNSLD(sld, x.AggregateLen(), y.AggregateLen(), t) {
			out = append(out, Hit{ID: j, SLD: sld, NSLD: core.NSLDFromSLD(sld, x.AggregateLen(), y.AggregateLen())})
		}
	}
	return out
}

// SelfJoin returns every pair (i, j), i < j, within t, mapped to its SLD.
func SelfJoin(strs []token.TokenizedString, t float64, greedy bool) map[[2]int]int {
	out := make(map[[2]int]int)
	for j := range strs {
		for _, h := range Matches(strs[j], strs[:j], t, greedy) {
			out[[2]int{h.ID, j}] = h.SLD
		}
	}
	return out
}

// Bipartite returns every cross pair (i, j), i < nr <= j, within t,
// mapped to its SLD: the join of strs[:nr] with strs[nr:] over one
// corpus with boundary nr.
func Bipartite(strs []token.TokenizedString, nr int, t float64, greedy bool) map[[2]int]int {
	out := make(map[[2]int]int)
	for j := nr; j < len(strs); j++ {
		for _, h := range Matches(strs[j], strs[:nr], t, greedy) {
			out[[2]int{h.ID, j}] = h.SLD
		}
	}
	return out
}

// Subset checks the relation the paper's approximations keep against the
// exact join, and a lower threshold keeps against a higher one: they only
// ever lose pairs. Every pair of got must be a pair of want, at an SLD no
// lower than want's (greedy alignment overestimates SLD, never the
// reverse). It returns an error naming a pair that breaks the relation.
func Subset(want, got map[[2]int]int) error {
	for p, sld := range got {
		if w, ok := want[p]; !ok || sld < w {
			return fmt.Errorf("pair %v at SLD %d is not in the reference (present %v, SLD %d)", p, sld, ok, w)
		}
	}
	return nil
}
