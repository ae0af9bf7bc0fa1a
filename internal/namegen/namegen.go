// Package namegen generates the synthetic workloads that substitute for
// the paper's proprietary datasets (44M Google-account names; 10k labeled
// name-change pairs). The substitution rests on reproducing the
// distributional properties the paper's algorithms are sensitive to:
//
//   - token popularity is Zipf-distributed, so some tokens ("John",
//     "Mary") are shared by many strings — the load-imbalance and
//     max-frequency-cutoff (M) story of Sec. III-G.2;
//   - names have 2–4 tokens of realistic lengths;
//   - fraud rings are planted as clusters of adversarially-edited
//     variants of a seed name (character edits, token shuffles,
//     abbreviations, token additions) exactly as the motivating
//     application describes ("Barak Obama" → "Obamma, Boraak H.");
//   - labeled name-change pairs separate into small legitimate edits and
//     drastic fraud renames (account resale, Sec. V-D).
//
// All generation is deterministic for a given seed.
package namegen

import (
	"math/rand"
	"strings"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives all randomness; equal seeds give equal corpora.
	Seed int64
	// NumNames is the corpus size.
	NumNames int
	// RingFraction is the fraction of the corpus belonging to planted
	// fraud rings (default 0.3).
	RingFraction float64
	// MeanRingSize is the average ring cardinality (default 4).
	MeanRingSize int
	// MaxEditsPerVariant bounds the character edits applied to each ring
	// member (default 2).
	MaxEditsPerVariant int
	// FirstPool / LastPool are the distinct token-pool sizes (defaults
	// 2000 / 6000, sized so a 10k-name corpus has a realistically dense
	// distinct-token space). Smaller pools mean more shared tokens.
	FirstPool, LastPool int
	// ZipfS is the Zipf skew parameter (> 1; default 1.3).
	ZipfS float64
}

func (c Config) withDefaults() Config {
	if c.NumNames <= 0 {
		c.NumNames = 10000
	}
	if c.RingFraction <= 0 {
		c.RingFraction = 0.3
	}
	if c.MeanRingSize <= 1 {
		c.MeanRingSize = 4
	}
	if c.MaxEditsPerVariant <= 0 {
		c.MaxEditsPerVariant = 2
	}
	if c.FirstPool <= 0 {
		c.FirstPool = 2000
	}
	if c.LastPool <= 0 {
		c.LastPool = 6000
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.3
	}
	return c
}

// Ring records a planted fraud ring: the indices (into the generated
// corpus) of a seed name and its adversarial variants. Rings are the
// ground truth for recall studies.
type Ring struct {
	Members []int
}

// Generate returns a synthetic name corpus.
func Generate(cfg Config) []string {
	names, _ := GenerateWithRings(cfg)
	return names
}

// GenerateWithRings returns the corpus plus the planted-ring ground truth.
func GenerateWithRings(cfg Config) ([]string, []Ring) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pools := newPools(rng, cfg)

	var names []string
	var rings []Ring
	ringBudget := int(float64(cfg.NumNames) * cfg.RingFraction)
	for len(names) < cfg.NumNames {
		seed := pools.freshName(rng)
		if ringBudget > 0 && rng.Float64() < cfg.RingFraction {
			// Plant a ring around this seed.
			size := 2 + rng.Intn(2*cfg.MeanRingSize-3) // mean ≈ MeanRingSize
			if size > ringBudget {
				size = ringBudget
			}
			if size > cfg.NumNames-len(names) {
				size = cfg.NumNames - len(names)
			}
			ring := Ring{}
			for k := 0; k < size; k++ {
				var v string
				if k == 0 {
					v = seed
				} else {
					v = perturb(rng, seed, cfg.MaxEditsPerVariant)
				}
				ring.Members = append(ring.Members, len(names))
				names = append(names, v)
			}
			if len(ring.Members) >= 2 {
				rings = append(rings, ring)
			}
			ringBudget -= size
		} else {
			names = append(names, seed)
		}
	}
	return names, rings
}

// pools holds the Zipf-weighted token pools.
type pools struct {
	firsts, lasts []string
	zf, zl        *rand.Zipf
}

func newPools(rng *rand.Rand, cfg Config) *pools {
	p := &pools{
		firsts: makeTokens(rng, cfg.FirstPool, 3, 8),
		lasts:  makeTokens(rng, cfg.LastPool, 4, 10),
	}
	p.zf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.FirstPool-1))
	p.zl = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.LastPool-1))
	return p
}

// freshName draws a 2–4 token name with Zipf-popular tokens.
func (p *pools) freshName(rng *rand.Rand) string {
	parts := []string{p.firsts[p.zf.Uint64()], p.lasts[p.zl.Uint64()]}
	if rng.Float64() < 0.25 { // middle name or initial
		if rng.Float64() < 0.5 {
			parts = append(parts, string(rune('a'+rng.Intn(26))))
		} else {
			parts = append(parts, p.firsts[p.zf.Uint64()])
		}
	}
	if rng.Float64() < 0.05 { // generational suffix
		parts = append(parts, []string{"jr", "sr", "ii", "iii"}[rng.Intn(4)])
	}
	return strings.Join(parts, " ")
}

// makeTokens builds n distinct pronounceable tokens with lengths in
// [minLen, maxLen].
func makeTokens(rng *rand.Rand, n, minLen, maxLen int) []string {
	const cons = "bcdfghjklmnprstvwz"
	const vows = "aeiou"
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for len(out) < n {
		l := minLen + rng.Intn(maxLen-minLen+1)
		var b strings.Builder
		for i := 0; b.Len() < l; i++ {
			if i%2 == 0 {
				b.WriteByte(cons[rng.Intn(len(cons))])
			} else {
				b.WriteByte(vows[rng.Intn(len(vows))])
			}
		}
		t := b.String()
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// perturb applies the adversarial edits of the motivating application: a
// few character edits, possibly a token shuffle (free under NSLD but it
// exercises the pipeline), an abbreviation, or an extra initial.
func perturb(rng *rand.Rand, name string, maxEdits int) string {
	toks := strings.Fields(name)
	// Structural tweak with small probability.
	switch r := rng.Float64(); {
	case r < 0.15 && len(toks) >= 2: // shuffle tokens
		i, j := rng.Intn(len(toks)), rng.Intn(len(toks))
		toks[i], toks[j] = toks[j], toks[i]
	case r < 0.25: // append an initial
		toks = append(toks, string(rune('a'+rng.Intn(26))))
	case r < 0.30 && len(toks) >= 3: // drop a middle token
		toks = append(toks[:1], toks[2:]...)
	}
	// Character edits on randomly chosen tokens.
	edits := 1 + rng.Intn(maxEdits)
	for e := 0; e < edits; e++ {
		i := rng.Intn(len(toks))
		toks[i] = editToken(rng, toks[i])
	}
	return strings.Join(toks, " ")
}

// editToken applies one random character edit.
func editToken(rng *rand.Rand, tok string) string {
	r := []rune(tok)
	switch rng.Intn(3) {
	case 0: // substitute
		if len(r) > 0 {
			r[rng.Intn(len(r))] = rune('a' + rng.Intn(26))
		}
	case 1: // insert
		p := rng.Intn(len(r) + 1)
		r = append(r[:p], append([]rune{rune('a' + rng.Intn(26))}, r[p:]...)...)
	default: // delete
		if len(r) > 1 {
			p := rng.Intn(len(r))
			r = append(r[:p], r[p+1:]...)
		}
	}
	return string(r)
}
