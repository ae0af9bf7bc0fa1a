package core

import (
	"slices"

	"repro/internal/assignment"
	"repro/internal/strdist"
	"repro/internal/token"
)

// MaxSLDWithin returns the SLD budget implied by the NSLD threshold: the
// largest sld a pair with aggregate lengths la, lb can have while still
// satisfying NSLD <= t. Rearranging WithinNSLD (2*sld <= t*(la+lb+sld))
// gives sld <= t*(la+lb)/(2-t); the float seed is then snapped to the
// exact WithinNSLD boundary so bounded and exact verification agree on
// every pair, including ones that land on the threshold.
func MaxSLDWithin(t float64, la, lb int) int {
	if t < 0 {
		return -1
	}
	if t >= 2 {
		// Degenerate: WithinNSLD holds for every sld; SLD never exceeds
		// la+lb (delete every token of one side, grow every token of the
		// other).
		return la + lb
	}
	b := int(t * float64(la+lb) / (2 - t))
	if b < 0 {
		b = 0
	}
	for WithinNSLD(b+1, la, lb, t) {
		b++
	}
	for b > 0 && !WithinNSLD(b, la, lb, t) {
		b--
	}
	return b
}

// Verifier is a reusable, threshold-aware verification engine for the
// Sec. III-F decision NSLD <= T. Instead of computing the exact, unbounded
// SLD for every surviving candidate, it derives an SLD budget from the
// threshold (MaxSLDWithin) and rejects a pair the moment a lower bound
// exceeds it, cheapest bound first:
//
//  1. the signature pre-pass (sigPrune) bounds each row's minimum cell
//     from one 64-bit character signature per token, touching no DP cell
//     (every TokenizedString stores them: BuildCorpus signs each distinct
//     token once, token.New each token once);
//  2. shared-token cancellation (cancelShared) removes the multiset
//     intersection of the two sorted token lists, which an optimal — and
//     the greedy — alignment pairs at cost 0 (see the package comment); a
//     pair with an empty residue on either side resolves right here, its
//     SLD the other residue's aggregate length;
//  3. matrix construction runs each residue cell's banded Levenshtein
//     capped at budget+1, row by row, and aborts when the sum of per-row
//     minima (a valid assignment lower bound) exceeds the budget;
//  4. the alignment itself — Hungarian or greedy — over the residue
//     matrix terminates as soon as its growing partial-matching cost
//     proves the total will.
//
// Step 1 is the row-minima abort decided early, not a new filter: each of
// its terms is at most the capped cell step 3 would compute over the full
// matrix, whose row-minima sum cancellation only raises (a residue row
// loses columns, never gains one), so a pair it kills is one steps 2–3
// report as pruned, and Within, Pruned and every counter built on them are
// the same with and without it. Only the lower-bound value reported for a
// pruned pair differs. Step 1 runs over the full token lists, before
// step 2: it rejects almost every candidate, so merging first would spend
// a merge on pairs the signatures alone decide.
//
// Each pair is verified on its own, where its engine admits it: after
// step 2 a surviving pair leaves one to three residue rows, too little
// work to be worth batching across pairs.
//
// All scratch (the flattened cost matrix, residue views, Levenshtein DP
// row, Hungarian potentials and paths, greedy edge list) is owned by the
// Verifier and reused across calls, so a long-lived per-worker Verifier
// performs zero steady-state allocations. A Verifier is NOT safe for
// concurrent use; give each worker its own (each reduce worker of the
// batch join owns one, the stream keeps a sync.Pool; the zero value is
// ready to use).
//
// Exactness: for every pair, the bounded verdict equals the exact one
// (accept iff SLD <= budget, or greedy-SLD <= budget under Greedy), and
// an accepted pair's reported distance is the exact (greedy) SLD. The cap
// arguments: a capped cell costs budget+1, so any assignment using one
// already exceeds the budget; an accepted matching therefore uses only
// uncapped — exact — cells.
type Verifier struct {
	// Greedy switches the alignment to the greedy-token-aligning
	// approximation (Sec. III-G.5) instead of the exact Hungarian.
	Greedy bool
	// SigPruned counts the pairs the signature pre-pass (step 1) decided,
	// a subset of the pruned verdicts. The owning engine folds it into its
	// stats and resets it.
	SigPruned int64

	cost    []int    // flattened k x k cost matrix
	levRow  []uint16 // Levenshtein DP row (token lengths fit uint16)
	resid   [][]rune // residue rune views of the pair in verify (cancelShared)
	scratch assignment.Scratch
	staged  int64 // pairs StageBatch decided since the last FlushBatch
}

// Verify decides NSLD(x, y) <= t with the threshold-derived budget.
// Returns the setwise distance (exact — or the greedy upper bound under
// Greedy — whenever within is true), whether the pair is within the
// threshold, and whether it was rejected early (before the alignment
// completed) by the budget.
func (v *Verifier) Verify(x, y *token.TokenizedString, t float64) (sld int, within, pruned bool) {
	if t < 0 {
		// No sld satisfies WithinNSLD: every pair is pruned unverified.
		return 0, false, true
	}
	return v.verify(x, y, MaxSLDWithin(t, x.AggregateLen(), y.AggregateLen()))
}

// verify runs the budgeted pipeline under a non-negative SLD budget max:
// trivial sides, the signature pre-pass, shared-token cancellation,
// matrix construction over the residues with the row-minima abort, then
// the budget-aware alignment. A budget of x.AggregateLen()+y.AggregateLen()
// or more never binds (no SLD exceeds it).
func (v *Verifier) verify(x, y *token.TokenizedString, max int) (sld int, within, pruned bool) {
	if x.Count() == 0 {
		d := y.AggregateLen()
		return d, d <= max, false
	}
	if y.Count() == 0 {
		d := x.AggregateLen()
		return d, d <= max, false
	}
	if lower, dead := sigPrune(x.RuneSlices(), y.RuneSlices(), x.Sigs(), y.Sigs(), max); dead {
		v.SigPruned++
		return lower, false, true
	}
	var xr, yr [][]rune
	v.resid, xr, yr = cancelShared(v.resid[:0], x, y)
	if len(xr) == 0 || len(yr) == 0 {
		return residueOnly(xr, yr, max)
	}
	k, lower, ok := v.buildCost(xr, yr, max)
	if !ok {
		return lower, false, true
	}
	var total int
	var early bool
	if v.Greedy {
		total, ok, early = v.scratch.GreedyFlat(v.cost, k, max)
	} else {
		total, ok, early = v.scratch.HungarianFlat(v.cost, k, max)
	}
	return total, ok, !ok && early
}

// cancelShared merges the sorted token lists of x and y and cancels their
// multiset intersection, first copies first. It returns the residue rune
// views, each in its side's token order, carved out of buf grown by at
// most x.Count()+y.Count() views; when the sides share no token it returns
// buf untouched and the strings' own slices, copying nothing. A merge only
// ever cancels two equal tokens, so on a string that was not sorted it
// would only leave a shared token uncancelled, never drop an unshared one.
func cancelShared(buf [][]rune, x, y *token.TokenizedString) (grown, xr, yr [][]rune) {
	xt, yt := x.Tokens, y.Tokens
	m, n := len(xt), len(yt)
	i, j := 0, 0
	for i < m && j < n && xt[i] != yt[j] {
		if xt[i] < yt[j] {
			i++
		} else {
			j++
		}
	}
	xs, ys := x.RuneSlices(), y.RuneSlices()
	if i == m || j == n {
		return buf, xs, ys
	}
	start := len(buf)
	buf = slices.Grow(buf, m+n)[:start+m+n]
	xr = append(buf[start:start:start+m], xs[:i]...)
	yr = append(buf[start+m:start+m], ys[:j]...)
	for i, j = i+1, j+1; i < m && j < n; {
		switch {
		case xt[i] == yt[j]:
			i++
			j++
		case xt[i] < yt[j]:
			xr = append(xr, xs[i])
			i++
		default:
			yr = append(yr, ys[j])
			j++
		}
	}
	return buf, append(xr, xs[i:]...), append(yr, ys[j:]...)
}

// residueOnly resolves a pair whose residue is empty on at least one side:
// every remaining token of the other side aligns with ε, so the SLD is its
// aggregate length. No alignment runs, so a pair over the budget is
// reported pruned: every pair the pre-pass kills stays one the later steps
// report pruned (see Verifier).
func residueOnly(xr, yr [][]rune, max int) (sld int, within, pruned bool) {
	for _, r := range xr {
		sld += len(r)
	}
	for _, r := range yr {
		sld += len(r)
	}
	within = sld <= max
	return sld, within, !within
}

// sigPrune is the signature pre-pass verify runs before it touches a DP
// cell. It walks the rows of the padded k x k matrix in buildCost's
// order, sums a lower bound on each row's minimum capped cell — per cell
// strdist.SigLowerBound <= LD, and the exact |token| for ε cells — and
// reports the pair dead, with the partial sum, the moment that sum exceeds
// the budget b. Its partial sums never exceed buildCost's over the same
// rows of the full matrix, and cancelling shared tokens only raises that
// row-minima sum, so dead here implies the residues' pruned verdict. xs
// and ys are the sides' stored signatures (token.TokenizedString.Sigs),
// taken when the strings were built, never per pair; uint64(uint(s))
// recovers a signature without sign extension, so a platform whose int
// truncates them only weakens the bound.
func sigPrune(xr, yr [][]rune, xs, ys []int, b int) (lower int, dead bool) {
	m, n := len(xr), len(yr)
	cap1 := b + 1
	for i, sx := range xs {
		la := len(xr[i])
		rowMin := cap1
		if n < m { // ε columns: delete the whole token
			rowMin = min(la, cap1)
		}
		for j := 0; j < n && rowMin > 0; j++ {
			rowMin = min(rowMin, strdist.SigLowerBound(uint64(uint(sx)), uint64(uint(ys[j])), la, len(yr[j])))
		}
		if lower += rowMin; lower > b {
			return lower, true
		}
	}
	if n > m { // ε rows: each grows into the shortest token at best
		minTok := cap1
		for _, r := range yr {
			minTok = min(minTok, len(r))
		}
		lower += (n - m) * minTok
	}
	return lower, lower > b
}

// buildCost fills the flattened padded cost matrix of Sec. III-F
// (costMatrix) over the token rune views xr and yr — in verify, the
// residues cancelShared leaves — with budget-capped cells. While building
// it accumulates the sum of per-row minima — each row must be matched to
// some column, so the sum is a lower bound on any assignment — and aborts
// the moment that bound exceeds the budget, returning ok = false and the
// bound.
func (v *Verifier) buildCost(xr, yr [][]rune, max int) (k, lower int, ok bool) {
	m, n := len(xr), len(yr)
	k = m
	if n > k {
		k = n
	}
	if cap(v.cost) < k*k {
		v.cost = make([]int, k*k, 2*k*k)
	}
	v.cost = v.cost[:k*k]
	cap1 := max + 1 // cell cap; any assignment using a capped cell busts the budget
	rowMinSum := 0
	for i := 0; i < k; i++ {
		rowMin := int(^uint(0) >> 2)
		row := v.cost[i*k : (i+1)*k]
		for j := 0; j < k; j++ {
			var c int
			switch {
			case i < m && j < n:
				c, _ = strdist.LevenshteinBoundedScratchU16(xr[i], yr[j], max, &v.levRow)
			case i < m:
				c = len(xr[i]) // delete whole token into ε
			case j < n:
				c = len(yr[j]) // grow ε into the token
			default:
				c = 0 // ε matched to ε
			}
			if c > cap1 {
				c = cap1
			}
			row[j] = c
			if c < rowMin {
				rowMin = c
			}
		}
		rowMinSum += rowMin
		if rowMinSum > max {
			return k, rowMinSum, false
		}
	}
	return k, rowMinSum, true
}
