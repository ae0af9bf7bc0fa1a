// Package gen holds the benchmark's own frozen input generators. They
// import nothing from the engine (in particular not internal/namegen), so
// a later change to the engine's generators cannot change the load the
// benchmark applies; gen_test.go pins the bytes with golden hashes.
//
// Every generator is a pure function of its seed, and every generated
// string is distinct from every other string of the same workload:
// exact duplicates turn the name join into a memory-bound quadratic emit
// of SLD-0 pairs, which is neither the paper's regime nor repeatable on a
// shared machine.
package gen

import (
	"math"
	"strings"
)

// rng is splitmix64: the generators must not depend on the sequence a
// particular Go release gives math/rand.
type rng struct{ s uint64 }

// newRNG derives an independent stream from a seed. The seed is hashed
// first: splitmix64 states that differ by a multiple of the increment
// give the same sequence shifted, which would make seeds 1 and 2 share
// almost all of their draws.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)}
	r.s = r.next() ^ stream*0xbf58476d1ce4e5b9
	r.s = r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// pool is a token vocabulary with a fixed popularity profile: rank k is
// drawn with weight 1/(k+offset)^skew. The profile is a table, not a
// sampler with rejection, so draw counts per string are constant.
type pool struct {
	tokens []string
	cdf    []float64
}

func newPool(r *rng, taken map[string]struct{}, n, minLen, maxLen int, skew, offset float64) *pool {
	p := &pool{tokens: makeTokens(r, taken, n, minLen, maxLen), cdf: make([]float64, n)}
	var sum float64
	for k := range p.cdf {
		sum += 1 / math.Pow(float64(k)+offset, skew)
		p.cdf[k] = sum
	}
	for k := range p.cdf {
		p.cdf[k] /= sum
	}
	return p
}

func (p *pool) draw(r *rng) string {
	u := r.float()
	lo, hi := 0, len(p.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return p.tokens[lo]
}

// deal returns n tokens in which every rank appears exactly as often as
// its popularity says (n times its probability, rounded along the
// cumulative curve), in an order the seed decides. Dealing in place of
// drawing keeps the sum of squared token frequencies — which is what the
// number of candidate pairs follows — the same for every seed.
func (p *pool) deal(r *rng, n int) []string {
	out := make([]string, 0, n)
	for k := range p.cdf {
		for upto := int(float64(n)*p.cdf[k] + 0.5); len(out) < upto; {
			out = append(out, p.tokens[k])
		}
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// makeTokens builds n distinct pronounceable tokens, none already taken.
func makeTokens(r *rng, taken map[string]struct{}, n, minLen, maxLen int) []string {
	const cons = "bcdfghjklmnprstvwz"
	const vows = "aeiou"
	out := make([]string, 0, n)
	for len(out) < n {
		l := minLen + r.intn(maxLen-minLen+1)
		b := make([]byte, l)
		start := r.intn(2)
		for i := range b {
			if (i+start)%2 == 0 {
				b[i] = cons[r.intn(len(cons))]
			} else {
				b[i] = vows[r.intn(len(vows))]
			}
		}
		t := string(b)
		if _, dup := taken[t]; dup {
			continue
		}
		taken[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// editToken applies one character edit: substitute, insert, delete or
// transpose.
func editToken(r *rng, tok string) string {
	b := []byte(tok)
	switch r.intn(4) {
	case 0:
		b[r.intn(len(b))] = byte('a' + r.intn(26))
	case 1:
		p := r.intn(len(b) + 1)
		b = append(b[:p], append([]byte{byte('a' + r.intn(26))}, b[p:]...)...)
	case 2:
		if len(b) > 2 {
			p := r.intn(len(b))
			b = append(b[:p], b[p+1:]...)
		}
	default:
		if len(b) > 1 {
			p := r.intn(len(b) - 1)
			b[p], b[p+1] = b[p+1], b[p]
		}
	}
	return string(b)
}

// distinct collects strings, refusing repeats.
type distinct struct {
	seen map[string]struct{}
	out  []string
}

func newDistinct(n int) *distinct {
	return &distinct{seen: make(map[string]struct{}, n), out: make([]string, 0, n)}
}

func (d *distinct) add(s string) bool {
	if _, dup := d.seen[s]; dup {
		return false
	}
	d.seen[s] = struct{}{}
	d.out = append(d.out, s)
	return true
}

// ---- Person names ---------------------------------------------------------

// nameSpace is the vocabulary person names are drawn from. It is the same
// for every seed: the seed decides which names are composed from it, not
// how long the popular tokens are, because token length sets the cost of
// every Levenshtein cell and would otherwise move the metrics from seed
// to seed by more than any change under test.
type nameSpace struct {
	firsts, lasts *pool
}

func newNameSpace() *nameSpace {
	r := newRNG(0, 1)
	taken := make(map[string]struct{})
	return &nameSpace{
		firsts: newPool(r, taken, 3000, 3, 8, 1.0, 12),
		lasts:  newPool(r, taken, 12000, 4, 10, 1.0, 40),
	}
}

var suffixes = []string{"jr", "sr", "ii", "iii"}

func initial(r *rng) string { return string(rune('a' + r.intn(26))) }

// compose builds a 2–4-token name: first and last; on a third of them a
// middle initial or a second first name; on a few of those a generational
// suffix. shape in [0, 1) picks the form.
func compose(r *rng, shape float64, first, last string, middle func() string) string {
	parts := []string{first, last}
	switch {
	case shape < 0.17:
		parts = append(parts, initial(r))
	case shape < 0.34:
		parts = append(parts, middle())
	}
	if shape < 0.05 || (shape >= 0.17 && shape < 0.22) {
		parts = append(parts, suffixes[r.intn(len(suffixes))])
	}
	return strings.Join(parts, " ")
}

// fresh draws one name for the add and probe streams.
func (ns *nameSpace) fresh(r *rng) string {
	return compose(r, r.float(), ns.firsts.draw(r), ns.lasts.draw(r), func() string { return ns.firsts.draw(r) })
}

// variant is a fraud-ring member: the seed name with one character edit
// (two on a third of them), and sometimes its tokens reordered, which is
// free under the setwise distance but moves the tokens through different
// posting lists.
func variant(r *rng, name string) string {
	toks := strings.Fields(name)
	if r.float() < 0.25 {
		i, j := r.intn(len(toks)), r.intn(len(toks))
		toks[i], toks[j] = toks[j], toks[i]
	}
	// The first edit goes to the longest token: a one-letter initial
	// edited is a different initial, not a misspelling.
	k := 0
	for i, t := range toks {
		if len(t) > len(toks[k]) {
			k = i
		}
	}
	toks[k] = editToken(r, toks[k])
	if r.float() < 0.33 {
		if k = r.intn(len(toks)); len(toks[k]) >= 3 {
			toks[k] = editToken(r, toks[k])
		}
	}
	return strings.Join(toks, " ")
}

// nameRings is the number of ring variants planted after each seed name,
// cycled: rings of 2, 3, 4 and 6 members per 40 seed names, so 29% of the
// strings belong to a ring. A fixed cycle, not a draw, so that the number
// of near-duplicate pairs does not depend on the seed.
var nameRings = [40]int{3: 1, 13: 2, 24: 3, 37: 5}

// Names returns n distinct 2–4-token person names with planted fraud
// rings: the join_names input and the serve workloads' preload.
func Names(seed int64, n int) []string {
	ns := newNameSpace()
	r := newRNG(seed, 2)
	firsts := ns.firsts.deal(r, n+n/3)
	lasts := ns.lasts.deal(r, n)
	d := newDistinct(n)
	for i := 0; len(d.out) < n; i++ {
		shape := float64(i%100) / 100
		middle := func() string { f := firsts[0]; firsts = firsts[1:]; return f }
		name := compose(r, shape, middle(), lasts[i], middle)
		for !d.add(name) {
			name += " " + initial(r) // two people with one name: tell them apart
		}
		for k := nameRings[i%len(nameRings)]; k > 0 && len(d.out) < n; {
			if d.add(variant(r, name)) {
				k--
			}
		}
	}
	return d.out
}

// AddStream returns n names to add after preload (a Names result) was
// loaded: 30% are ring variants of preloaded names, the rest are fresh
// names from the same vocabulary. All are distinct from each other and
// from the preload. variantOf[i] is the preload index the i-th name was
// derived from, or -1 for a fresh name.
func AddStream(seed int64, preload []string, n int) (names []string, variantOf []int) {
	ns := newNameSpace()
	r := newRNG(seed, 3)
	d := newDistinct(len(preload) + n)
	for _, s := range preload {
		d.add(s)
	}
	variantOf = make([]int, 0, n)
	for len(variantOf) < n {
		if len(variantOf)%10 < 3 {
			src := r.intn(len(preload))
			if d.add(variant(r, preload[src])) {
				variantOf = append(variantOf, src)
			}
		} else if d.add(ns.fresh(r)) {
			variantOf = append(variantOf, -1)
		}
	}
	return d.out[len(preload):], variantOf
}

// ProbeStream returns n query strings against preload (a Names result):
// half are near-duplicates of preloaded names, half are fresh names from
// the same vocabulary (most of which match nothing). Probes may repeat;
// they are never indexed.
func ProbeStream(seed int64, preload []string, n int) []string {
	ns := newNameSpace()
	r := newRNG(seed, 4)
	out := make([]string, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = variant(r, preload[r.intn(len(preload))])
		} else {
			out[i] = ns.fresh(r)
		}
	}
	return out
}

// ---- Long strings ---------------------------------------------------------

// longRings is nameRings for the long strings: near-duplicates after 3 of
// every 10 base strings, 6 variants per 16 strings.
var longRings = [10]int{2: 1, 5: 2, 9: 3}

// Long returns n distinct organisation/address-like strings of 8–12
// tokens: the join_long input. Over a third of them are near-duplicates
// of an earlier string (one to three tokens misspelt, sometimes one
// dropped or added), so at T = 0.3 the similar-token path and the
// Hungarian alignment have real work, and the vocabulary is small enough
// that most pairs share a token.
//
// A variant repeats its base string's tokens, so how often a token occurs
// in the input depends on which base strings it was dealt to. The base
// strings are therefore dealt their tokens ring size by ring size: within
// each ring size every token occurs exactly as often as its popularity
// says, and so does it, weighted by ring size, in the whole input.
func Long(seed int64, n int) []string {
	words := newPool(newRNG(0, 5), make(map[string]struct{}), 900, 3, 10, 0.8, 8)
	r := newRNG(seed, 6)
	// Lay the input out first: base i has 8+i%5 tokens and longRings[i%10]
	// variants. A few spare bases cover strings refused as repeats.
	const maxRing = 3
	var slots [maxRing + 1]int
	for i, strs := 0, 0; strs < n+n/8+16; i++ {
		slots[longRings[i%len(longRings)]] += 8 + i%5
		strs += 1 + longRings[i%len(longRings)]
	}
	var dealt [maxRing + 1][]string
	for k := range dealt {
		dealt[k] = words.deal(r, slots[k])
	}
	extra := words.deal(r, n)
	d := newDistinct(n)
	for i := 0; len(d.out) < n; i++ {
		ring := longRings[i%len(longRings)]
		toks := append([]string(nil), dealt[ring][:8+i%5]...)
		dealt[ring] = dealt[ring][len(toks):]
		base := strings.Join(toks, " ")
		if !d.add(base) {
			continue
		}
		for k := ring; k > 0 && len(d.out) < n; k-- {
			v := strings.Fields(base)
			for e := 1 + (i+k)%3; e > 0; e-- {
				j := r.intn(len(v))
				v[j] = editToken(r, v[j])
			}
			switch (i + k) % 5 {
			case 0:
				if len(v) > 8 {
					j := r.intn(len(v))
					v = append(v[:j], v[j+1:]...)
				}
			case 1:
				if len(v) < 12 {
					v = append(v, extra[0])
					extra = extra[1:]
				}
			}
			if !d.add(strings.Join(v, " ")) {
				k++
			}
		}
	}
	return d.out
}
