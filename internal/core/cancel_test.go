package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nsldtest"
	"repro/internal/token"
)

// cancelPool draws 3-5 tokens for one round of
// TestSharedTokenCancelEquivalence: mostly short words over "abc", so
// tokens are near one another, plus now and then one with an astral rune
// or one longer than 64 runes, which the batch path sends to the scalar
// engine.
func cancelPool(rng *rand.Rand) []string {
	pool := make([]string, 3+rng.Intn(3))
	for i := range pool {
		switch rng.Intn(8) {
		case 0:
			pool[i] = "a\U0001F600" + strings.Repeat("b", rng.Intn(3))
		case 1:
			pool[i] = strings.Repeat("ab", 33) + strings.Repeat("c", rng.Intn(3))
		default:
			b := make([]byte, 1+rng.Intn(6))
			for j := range b {
				b[j] = "abc"[rng.Intn(3)]
			}
			pool[i] = string(b)
		}
	}
	return pool
}

// overlap reports whether x and y share a token, and whether cancelling
// the shared ones leaves one side with none (one is a sub-multiset of the
// other).
func overlap(x, y token.TokenizedString) (shared, emptyResidue bool) {
	count := map[string]int{}
	for _, t := range x.Tokens {
		count[t]++
	}
	for _, t := range y.Tokens {
		shared = shared || count[t] > 0
		count[t]--
	}
	xLeft, yLeft := false, false
	for _, c := range count {
		xLeft, yLeft = xLeft || c > 0, yLeft || c < 0
	}
	return shared, !xLeft || !yLeft
}

// TestSharedTokenCancelEquivalence: the Verifier cancels the tokens two
// strings share before it builds a cost matrix, and the answer is the
// uncancelled one. Strings are multisets over a pool of 3-5 tokens, so
// most pairs share most of their tokens and many leave an empty residue.
// Under Hungarian and greedy alignment:
//   - unbounded SLDBounded equals core.SLD / core.SLDGreedy, which build
//     the full matrix, and every bounded SLDBounded around it agrees;
//   - over a dense T grid, Within and an accepted SLD equal the nsldtest
//     oracle's;
//   - StageBatch + FlushBatch and the per-pair engine (DisableBatch)
//     return the same BatchResult, pruned pairs and empty residues
//     included;
//   - BuildCorpus strings (stored signatures) and token.New strings give
//     the same BatchResults.
func TestSharedTokenCancelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3030))
	var grid []float64
	for i := 0; i <= 40; i++ {
		grid = append(grid, float64(i)/40)
	}
	var empty, partial, nothing int
	var ctr core.BatchCounters
	for iter := 0; iter < 120; iter++ {
		pool := cancelPool(rng)
		news := make([]token.TokenizedString, 1+rng.Intn(10))
		for i := range news {
			toks := make([]string, rng.Intn(9))
			for j := range toks {
				toks[j] = pool[rng.Intn(len(pool))]
			}
			news[i] = token.New(toks)
		}
		built := token.BuildCorpusFromTokenized(news).Strings
		for _, y := range news {
			switch shared, emptyResidue := overlap(news[0], y); {
			case emptyResidue:
				empty++
			case shared:
				partial++
			default:
				nothing++
			}
		}
		for _, greedy := range []bool{false, true} {
			ref := core.SLD
			if greedy {
				ref = core.SLDGreedy
			}
			var first [][]core.BatchResult // per threshold, from the New strings
			for side, strs := range [][]token.TokenizedString{news, built} {
				x := strs[0]
				ys := make([]*token.TokenizedString, len(strs))
				for c := range strs {
					ys[c] = &strs[c]
				}
				sv := core.Verifier{Greedy: greedy, DisableBatch: true}
				gv := core.Verifier{Greedy: greedy}
				for _, y := range ys {
					want := ref(x, *y)
					if got, ok := sv.SLDBounded(x, *y, -1); !ok || got != want {
						t.Fatalf("greedy=%v %v | %v: unbounded SLD %d (ok %v), full matrix %d", greedy, x.Tokens, y.Tokens, got, ok, want)
					}
					for max := 0; max <= want+1; max++ {
						got, ok := sv.SLDBounded(x, *y, max)
						if ok != (want <= max) || ok && got != want || !ok && got <= max {
							t.Fatalf("greedy=%v %v | %v: SLDBounded(%d) = (%d, %v), full matrix %d", greedy, x.Tokens, y.Tokens, max, got, ok, want)
						}
					}
				}
				for ti, th := range grid {
					hits := map[int]int{}
					for _, h := range nsldtest.Matches(x, strs, th, greedy) {
						hits[h.ID] = h.SLD
					}
					scalar := make([]core.BatchResult, len(ys))
					sv.VerifyBatch(x, ys, th, scalar, nil)
					staged := make([]core.BatchResult, len(ys))
					gv.StageBatch(x, ys, th, staged)
					gv.FlushBatch(&ctr)
					for c, y := range ys {
						sld, in := hits[c]
						if r := scalar[c]; r.Within != in || in && r.SLD != sld {
							t.Fatalf("t=%.3f greedy=%v %v | %v: %+v, oracle within %v at SLD %d", th, greedy, x.Tokens, y.Tokens, r, in, sld)
						}
						if staged[c] != scalar[c] {
							t.Fatalf("t=%.3f greedy=%v %v | %v: staged %+v, scalar %+v", th, greedy, x.Tokens, y.Tokens, staged[c], scalar[c])
						}
					}
					if side == 0 {
						first = append(first, scalar)
						continue
					}
					for c := range ys {
						if scalar[c] != first[ti][c] {
							t.Fatalf("t=%.3f greedy=%v %v | %v: BuildCorpus string %+v, token.New string %+v", th, greedy, x.Tokens, ys[c].Tokens, scalar[c], first[ti][c])
						}
					}
				}
			}
		}
	}
	t.Logf("%d pairs with an empty residue, %d sharing a token with both residues left, %d sharing none; %d kernels", empty, partial, nothing, ctr.Kernels)
	if empty < 100 || partial < 100 || nothing < 20 {
		t.Fatalf("input exercises too few shapes: %d empty residues, %d partial, %d disjoint", empty, partial, nothing)
	}
	if core.BatchKernelAvailable() && ctr.Kernels == 0 {
		t.Fatal("kernel live but no staged residue reached a lane")
	}
}
