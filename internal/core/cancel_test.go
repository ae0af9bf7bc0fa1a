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
// or one longer than 64 runes.
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

// verdict is one pair's (SLD, Within, Pruned) triple from Verify.
type verdict struct {
	sld            int
	within, pruned bool
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
//   - under a budget that cannot bind (T = 2 gives L(x)+L(y)), Verify's
//     SLD equals core.SLD / core.SLDGreedy, which build the full matrix,
//     and every integer budget 0..SLD+1 agrees with it: an accepted pair
//     reports the exact SLD, a rejected one a value above the budget;
//   - over a dense T grid, Within and an accepted SLD equal the nsldtest
//     oracle's;
//   - BuildCorpus strings (stored signatures) and token.New strings give
//     the same (SLD, Within, Pruned) triples, pruned pairs and empty
//     residues included.
func TestSharedTokenCancelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3030))
	var grid []float64
	for i := 0; i <= 40; i++ {
		grid = append(grid, float64(i)/40)
	}
	var empty, partial, nothing int
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
			var first [][]verdict // per threshold, from the New strings
			for side, strs := range [][]token.TokenizedString{news, built} {
				x := strs[0]
				ys := make([]*token.TokenizedString, len(strs))
				for c := range strs {
					ys[c] = &strs[c]
				}
				sv := core.Verifier{Greedy: greedy}
				for _, y := range ys {
					want := ref(x, *y)
					if got, ok, _ := sv.Verify(&x, y, 2); !ok || got != want {
						t.Fatalf("greedy=%v %v | %v: SLD %d (ok %v) under a budget that cannot bind, full matrix %d", greedy, x.Tokens, y.Tokens, got, ok, want)
					}
					for max := 0; max <= want+1; max++ {
						got, ok, _ := sv.VerifyBudget(&x, y, max)
						if ok != (want <= max) || ok && got != want || !ok && got <= max {
							t.Fatalf("greedy=%v %v | %v: budget %d gives (%d, %v), full matrix %d", greedy, x.Tokens, y.Tokens, max, got, ok, want)
						}
					}
				}
				for ti, th := range grid {
					hits := map[int]int{}
					for _, h := range nsldtest.Matches(x, strs, th, greedy) {
						hits[h.ID] = h.SLD
					}
					got := make([]verdict, len(ys))
					for c, y := range ys {
						sld, within, pruned := sv.Verify(&x, y, th)
						got[c] = verdict{sld, within, pruned}
						if want, in := hits[c]; within != in || in && sld != want {
							t.Fatalf("t=%.3f greedy=%v %v | %v: %+v, oracle within %v at SLD %d", th, greedy, x.Tokens, y.Tokens, got[c], in, want)
						}
					}
					if side == 0 {
						first = append(first, got)
						continue
					}
					for c := range ys {
						if got[c] != first[ti][c] {
							t.Fatalf("t=%.3f greedy=%v %v | %v: BuildCorpus string %+v, token.New string %+v", th, greedy, x.Tokens, ys[c].Tokens, got[c], first[ti][c])
						}
					}
				}
			}
		}
	}
	t.Logf("%d pairs with an empty residue, %d sharing a token with both residues left, %d sharing none", empty, partial, nothing)
	if empty < 100 || partial < 100 || nothing < 20 {
		t.Fatalf("input exercises too few shapes: %d empty residues, %d partial, %d disjoint", empty, partial, nothing)
	}
}
