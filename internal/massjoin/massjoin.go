// Package massjoin implements MassJoin (Deng, Li, Hao, Wang, Feng; ICDE
// 2014) — the MapReduce-distributed Pass-Join the paper employs for the
// NLD-join of token spaces (Sec. III-D) — on top of the in-process
// mapreduce engine.
//
// Job 1 (candidate generation) mirrors Sec. III-D: every index-side token
// is partitioned into its segments for every compatible probe length and
// emitted keyed by its string chunks; every probe-side token emits the
// selected substrings for every compatible index length. The shuffle
// groups tokens sharing a chunk, and the reducer outputs candidate token-id
// pairs. Job 2 de-duplicates candidates and verifies each surviving pair
// exactly once with a banded Levenshtein computation bounded by Lemma 8.
//
// Emission keys carry (indexLen, probeLen, segIdx) metadata exactly as
// MassJoin "augments the mapper output key by metadata to reduce candidate
// pairs" — as a 64-bit fingerprint of the four fields rather than the
// fields themselves, because the engine shuffles fixed-size integer keys
// and a string per emitted chunk was most of the job's cost. Two keys that
// collide merely share a reduce group: the group pairs more tokens than it
// had to, Job 2 verifies every candidate exactly, and the answer is the
// same (TestFingerprintCollisionsAreHarmless runs both joins on 4-bit
// fingerprints). At 64 bits a join with 10^5 distinct chunk keys sees a
// collision with probability under 10^-9, so the candidate counts the
// cluster model reads do not move either.
package massjoin

import (
	"repro/internal/mapreduce"
	"repro/internal/passjoin"
	"repro/internal/strdist"
)

// Config tunes the distributed join.
type Config struct {
	// MultiMatchAware selects the tight substring window (default true
	// via DefaultConfig).
	MultiMatchAware bool
	// MapTasks / Parallelism are forwarded to the engine.
	MapTasks    int
	Parallelism int
	// NamePrefix labels the jobs in pipeline stats.
	NamePrefix string
}

// DefaultConfig returns the recommended configuration.
func DefaultConfig() Config { return Config{MultiMatchAware: true, NamePrefix: "massjoin"} }

// fpMask narrows the Job-1 fingerprints. Full width in production; the
// collision test shrinks it to force groups to merge.
var fpMask = ^uint64(0)

// fingerprint is the Job-1 shuffle key: a 64-bit hash of a string chunk
// and the MassJoin metadata that restricts which token pairs may meet.
func fingerprint(indexLen, probeLen, seg int, chunk []rune) uint64 {
	// FNV-1a over 64-bit words with a golden-ratio multiplier. The metadata
	// word is multiplied in before the first rune is, or a segment index
	// and a rune that differ in the same bit would cancel.
	const mul = 0x9E3779B97F4A7C15
	h := (uint64(indexLen)<<40 | uint64(probeLen)<<16 | uint64(seg)) * mul
	for _, r := range chunk {
		h = (h ^ uint64(r)) * mul
	}
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h & fpMask
}

// A Job-1 intermediate value is a token id on one side, packed as
// id<<1 | side.
const (
	indexSide = 0 // the token's segments
	probeSide = 1 // the token's selected substrings
)

// emitter is the part of *mapreduce.MapCtx the map functions use.
type emitter interface{ Emit(uint64, uint32) }

// tokenRec is the Job-1 input record.
type tokenRec struct {
	id int32
	r  []rune
}

// lenPlan lists, for one token length l, the compatible lengths of the
// other token, lo..lo+len(tau)-1 (Lemma 9), each with the edit threshold
// of the length pair (Lemma 8; negative where no pair qualifies).
type lenPlan struct {
	lo  int
	tau []int
}

// lenPlans returns the lenPlan of every token length up to maxLen.
func lenPlans(t float64, maxLen int) []lenPlan {
	plans := make([]lenPlan, maxLen+1)
	for l := range plans {
		plans[l].lo = strdist.MinLenWithin(t, l)
		for o := plans[l].lo; o <= strdist.MaxLenWithin(t, l); o++ {
			plans[l].tau = append(plans[l].tau, strdist.MaxLDWithin(t, l, o))
		}
	}
	return plans
}

// SelfJoinNLD performs the distributed NLD self-join of a token space and
// returns every unordered pair (A < B by id when lengths are equal;
// otherwise A is the shorter token) with NLD <= t, along with the job
// pipeline statistics used by the simulated cluster.
func SelfJoinNLD(tokens [][]rune, t float64, cfg Config) ([]passjoin.Pair, *mapreduce.Pipeline) {
	return run(tokens, nil, t, cfg, true)
}

// JoinNLD performs the distributed bipartite NLD join: pairs (A indexes r,
// B indexes p) with NLD <= t.
func JoinNLD(r, p [][]rune, t float64, cfg Config) ([]passjoin.Pair, *mapreduce.Pipeline) {
	return run(r, p, t, cfg, false)
}

func run(r, p [][]rune, t float64, cfg Config, selfJoin bool) ([]passjoin.Pair, *mapreduce.Pipeline) {
	pipe := &mapreduce.Pipeline{}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "massjoin"
	}

	// Assemble Job-1 input. For the bipartite join, probe records carry
	// ids offset by len(r) so both sides share one input slice. sigs holds
	// each token's character signature by id, for Job 2.
	input := make([]tokenRec, 0, len(r)+len(p))
	sigs := make([]uint64, 0, len(r)+len(p))
	maxLen := 0
	for _, side := range [2][][]rune{r, p} {
		for _, s := range side {
			input = append(input, tokenRec{id: int32(len(input)), r: s})
			sigs = append(sigs, strdist.Sig(s))
			maxLen = max(maxLen, len(s))
		}
	}
	nr := int32(len(r))
	lookup := func(id int32) []rune {
		if id < nr {
			return r[id]
		}
		return p[id-nr]
	}
	plans := lenPlans(t, maxLen)

	// ---- Job 1: candidate generation -----------------------------------
	engCfg := mapreduce.Config{
		Name:        cfg.NamePrefix + "-candidates",
		MapTasks:    cfg.MapTasks,
		Parallelism: cfg.Parallelism,
	}
	cands, st1 := mapreduce.Run(engCfg, input,
		func(rec tokenRec, ctx *mapreduce.MapCtx[uint64, uint32]) {
			if selfJoin || rec.id < nr {
				emitSegments(rec, plans[len(rec.r)], selfJoin, ctx)
			}
			if selfJoin || rec.id >= nr {
				emitSubstrings(rec, plans[len(rec.r)], selfJoin, cfg.MultiMatchAware, ctx)
			}
		},
		func(_ uint64, vals []uint32, ctx *mapreduce.ReduceCtx[uint64]) {
			// Index side to the front; order within a side is free.
			ni := 0
			for i, v := range vals {
				if v&1 == indexSide {
					vals[i], vals[ni] = vals[ni], v
					ni++
				}
			}
			for _, va := range vals[:ni] {
				a := int32(va >> 1)
				la := len(lookup(a))
				for _, vb := range vals[ni:] {
					b := int32(vb >> 1)
					// A self-join pair is generated from its shorter token's
					// segments, ties by id (Sec. III-G.1). Read off the
					// tokens, not the key: colliding fingerprints can bring
					// any two lengths together.
					if lb := len(lookup(b)); selfJoin && (la > lb || la == lb && a >= b) {
						continue
					}
					ctx.Emit(uint64(a)<<32 | uint64(b))
				}
			}
			// Pair enumeration is quadratic in the posting sizes.
			ctx.AddCost(float64(ni) * float64(len(vals)-ni) * 0.1)
		},
	)
	pipe.Add(st1)

	// ---- Job 2: de-duplicate + verify -----------------------------------
	engCfg.Name = cfg.NamePrefix + "-verify"
	rows := make([][]uint16, engCfg.Workers()) // each reduce worker's Levenshtein DP row
	results, st2 := mapreduce.Run(engCfg, cands,
		func(c uint64, ctx *mapreduce.MapCtx[uint64, struct{}]) {
			ctx.Emit(c, struct{}{})
		},
		func(k uint64, _ []struct{}, ctx *mapreduce.ReduceCtx[passjoin.Pair]) {
			a, b := int32(k>>32), int32(k)
			x, y := lookup(a), lookup(b)
			tau := strdist.MaxLDWithin(t, len(x), len(y))
			// Charge the banded DP cost.
			ctx.AddCost(float64((tau + 1) * (min(len(x), len(y)) + 1)))
			// A signature bound above tau decides the pair without the DP.
			if strdist.SigLowerBound(sigs[a], sigs[b], len(x), len(y)) > tau {
				return
			}
			d, ok := strdist.LevenshteinBoundedScratchU16(x, y, tau, &rows[ctx.Worker()])
			if !ok || !strdist.WithinNLD(d, len(x), len(y), t) {
				return
			}
			if !selfJoin {
				b -= nr
			}
			ctx.Emit(passjoin.Pair{A: int(a), B: int(b), LD: d})
		},
	)
	pipe.Add(st2)
	return results, pipe
}

// emitSegments outputs the index-side records: for every compatible probe
// length, the token's even-partition segments under the Lemma 8 threshold.
// In self-join mode only probe lengths >= l are considered (Sec. III-G.1:
// "the case where |x| <= |y| only needs to be considered, yielding fewer
// segments"); the bipartite join must cover shorter probes too, since only
// R-side tokens are partitioned.
func emitSegments(rec tokenRec, pl lenPlan, selfJoin bool, ctx emitter) {
	l := len(rec.r)
	for k, tau := range pl.tau {
		ly := pl.lo + k
		if tau < 0 || selfJoin && ly < l {
			continue
		}
		for i := 0; i <= tau; i++ {
			sg := passjoin.EvenSegment(l, tau+1, i)
			ctx.Emit(fingerprint(l, ly, i, rec.r[sg.Start:sg.Start+sg.Len]), uint32(rec.id)<<1|indexSide)
		}
	}
}

// emitSubstrings outputs the probe-side records: for every compatible index
// length, the selected substrings for each segment position. Self-join mode
// restricts to index lengths <= l (the |x| <= |y| direction).
func emitSubstrings(rec tokenRec, pl lenPlan, selfJoin, multiMatch bool, ctx emitter) {
	l := len(rec.r)
	for k, tau := range pl.tau {
		ls := pl.lo + k
		if tau < 0 || selfJoin && ls > l {
			continue
		}
		for i := 0; i <= tau; i++ {
			sg := passjoin.EvenSegment(ls, tau+1, i)
			lo, hi := passjoin.SubstringWindow(ls, l, tau, i, sg, multiMatch)
			for q := lo; q <= hi; q++ {
				ctx.Emit(fingerprint(ls, l, i, rec.r[q:q+sg.Len]), uint32(rec.id)<<1|probeSide)
			}
		}
	}
}
