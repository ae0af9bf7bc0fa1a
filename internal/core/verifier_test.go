package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/token"
)

// TestBoundedEquivalenceSLD: for random token multisets and every budget
// around the true value, plus one that cannot bind (the sum of the
// aggregate lengths), the budgeted verify agrees with SLD (SLDGreedy under
// Greedy) whenever the true value is within budget and correctly reports
// exceeded otherwise. A second family draws multisets from a pool of four
// tokens, so shared-token cancellation leaves small or empty residues.
func TestBoundedEquivalenceSLD(t *testing.T) {
	var exact, greedy Verifier
	greedy.Greedy = true
	check := func(x, y token.TokenizedString) bool {
		for _, c := range []struct {
			v    *Verifier
			want int
		}{{&exact, SLD(x, y)}, {&greedy, SLDGreedy(x, y)}} {
			budgets := []int{x.AggregateLen() + y.AggregateLen()}
			for max := 0; max <= c.want+2; max++ {
				budgets = append(budgets, max)
			}
			for _, max := range budgets {
				got, ok, _ := c.v.verify(&x, &y, max)
				if c.want <= max {
					if !ok || got != c.want {
						return false
					}
				} else if ok || got <= max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(func(a, b genTS) bool { return check(a.TS, b.TS) }, quickCfg()); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(3031))
	pool := []string{"ab", "abc", "bca", "d"}
	draw := func() token.TokenizedString {
		toks := make([]string, rng.Intn(7))
		for i := range toks {
			toks[i] = pool[rng.Intn(len(pool))]
		}
		return token.New(toks)
	}
	for i := 0; i < 2000; i++ {
		if x, y := draw(), draw(); !check(x, y) {
			t.Fatalf("%v | %v: budgeted verify disagrees with the full matrix", x.Tokens, y.Tokens)
		}
	}
}

// TestBoundedEquivalenceVerify: Verifier.Verify reaches the same
// accept/reject decision as the exact pipeline (SLD + WithinNSLD) at
// random thresholds, reporting the exact SLD for accepted pairs, for both
// the Hungarian and greedy aligners.
func TestBoundedEquivalenceVerify(t *testing.T) {
	thresholds := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8}
	var exactV, greedyV Verifier
	greedyV.Greedy = true
	f := func(a, b genTS) bool {
		la, lb := a.TS.AggregateLen(), b.TS.AggregateLen()
		for _, th := range thresholds {
			wantSLD := SLD(a.TS, b.TS)
			wantIn := WithinNSLD(wantSLD, la, lb, th)
			sld, within, _ := exactV.Verify(&a.TS, &b.TS, th)
			if within != wantIn || (within && sld != wantSLD) {
				return false
			}
			wantG := SLDGreedy(a.TS, b.TS)
			wantGIn := WithinNSLD(wantG, la, lb, th)
			gsld, gwithin, _ := greedyV.Verify(&a.TS, &b.TS, th)
			if gwithin != wantGIn || (gwithin && gsld != wantG) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
	// Spiced strings: tokens over 64 runes, astral and multi-byte BMP
	// runes, empty sides, and thresholds of 1 and past 2, where the budget
	// stops binding.
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 3000; iter++ {
		a, b := spicedTS(rng), spicedTS(rng)
		for _, th := range []float64{0, 0.1, 0.3, 1, 2.5} {
			for _, v := range []*Verifier{&exactV, &greedyV} {
				want := SLD(a, b)
				if v.Greedy {
					want = SLDGreedy(a, b)
				}
				wantIn := WithinNSLD(want, a.AggregateLen(), b.AggregateLen(), th)
				if sld, within, _ := v.Verify(&a, &b, th); within != wantIn || within && sld != want {
					t.Fatalf("greedy=%v t=%v %q | %q: Verify (%d, %v), reference SLD %d within %v",
						v.Greedy, th, a.Tokens, b.Tokens, sld, within, want, wantIn)
				}
			}
		}
	}
}

// spicedTS draws a collision-heavy token multiset like genTS, plus now and
// then a token longer than 64 runes, one with an astral rune or one with
// multi-byte BMP runes.
func spicedTS(rng *rand.Rand) token.TokenizedString {
	n := rng.Intn(6)
	toks := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(12) == 0 {
			switch rng.Intn(3) {
			case 0:
				long := make([]rune, 65+rng.Intn(8))
				for j := range long {
					long[j] = rune('a' + rng.Intn(4))
				}
				toks = append(toks, string(long))
			case 1:
				toks = append(toks, "ab\U0001F600cd")
			default:
				toks = append(toks, "zürich✓")
			}
			continue
		}
		b := make([]rune, 1+rng.Intn(7))
		for j := range b {
			b[j] = rune('a' + rng.Intn(4))
		}
		toks = append(toks, string(b))
	}
	return token.New(toks)
}

// TestMaxSLDWithinBoundary: the budget is exactly the WithinNSLD
// boundary — sld <= budget iff WithinNSLD(sld) — on a dense threshold grid
// (step 0.001 over [0, 1)) plus exact rational boundary cases, for every
// pair of aggregate lengths up to 40.
func TestMaxSLDWithinBoundary(t *testing.T) {
	ths := []float64{1.0 / 3, 2.0 / 3, 1.0 / 7}
	for i := 0; i < 1000; i++ {
		ths = append(ths, float64(i)/1000)
	}
	for _, th := range ths {
		for la := 0; la <= 40; la++ {
			for lb := 0; lb <= 40; lb++ {
				budget := MaxSLDWithin(th, la, lb)
				if budget < 0 {
					t.Fatalf("t=%v la=%d lb=%d: negative budget %d", th, la, lb, budget)
				}
				if !WithinNSLD(budget, la, lb, th) {
					t.Fatalf("t=%v la=%d lb=%d: budget %d itself not within", th, la, lb, budget)
				}
				if WithinNSLD(budget+1, la, lb, th) {
					t.Fatalf("t=%v la=%d lb=%d: budget %d not maximal", th, la, lb, budget)
				}
			}
		}
	}
}

// sigBoundTS draws 0-12 tokens, with replacement, from a pool of a dozen
// short words over a five-letter alphabet: duplicate tokens within a string
// and shared tokens across strings are the norm, and two characters share a
// signature class ('a' and 'A' under & 31).
func sigBoundTS(rng *rand.Rand, pool []string) token.TokenizedString {
	toks := make([]string, rng.Intn(13))
	for i := range toks {
		toks[i] = pool[rng.Intn(len(pool))]
	}
	return token.New(toks)
}

// TestBoundedEquivalenceSigBound pins the signature pre-pass to the engines
// it sits in front of, on random multisets with heavy token duplication:
// (a) a pair the pre-pass kills is one buildCost's row-minima abort kills
// on its own, so Pruned cannot move; (b) a pair whose exact SLD — or greedy
// SLD — is within the budget is never killed, and Verify's verdict equals
// the unbounded reference's; (c) Verify returns the pre-pass's lower bound
// for a pair it kills and counts exactly those pairs in SigPruned, under
// both aligners.
func TestBoundedEquivalenceSigBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2323))
	const alpha = "abcdA"
	pool := make([]string, 12)
	for i := range pool {
		b := make([]byte, 1+rng.Intn(8))
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		pool[i] = string(b)
	}
	var dead, alive int
	var sigPruned int64
	for iter := 0; iter < 300; iter++ {
		x := sigBoundTS(rng, pool)
		ys := make([]*token.TokenizedString, 1+rng.Intn(10))
		for c := range ys {
			y := sigBoundTS(rng, pool)
			if rng.Intn(2) == 0 { // a near copy of the probe: the survivors
				toks := append([]string(nil), x.Tokens...)
				for e := rng.Intn(3); e > 0 && len(toks) > 0; e-- {
					toks[rng.Intn(len(toks))] = pool[rng.Intn(len(pool))]
				}
				y = token.New(toks)
			}
			ys[c] = &y
		}
		for _, th := range []float64{0.05, 0.1, 0.3, 0.6} {
			for _, greedy := range []bool{false, true} {
				sv := Verifier{Greedy: greedy}
				for _, y := range ys {
					b := MaxSLDWithin(th, x.AggregateLen(), y.AggregateLen())
					sld, within, pruned := sv.Verify(&x, y, th)
					exact := SLD(x, *y)
					ref := exact
					if greedy {
						ref = SLDGreedy(x, *y)
					}
					if within != (ref <= b) || within && sld != ref {
						t.Fatalf("t=%.2f greedy=%v %v | %v: Verify (%d, %v), reference SLD %d against budget %d",
							th, greedy, x.Tokens, y.Tokens, sld, within, ref, b)
					}
					if x.Count() == 0 || y.Count() == 0 {
						continue // trivial sides never reach the pre-pass
					}
					xr, yr := x.RuneSlices(), y.RuneSlices()
					lower, isDead := sigPrune(xr, yr, x.Sigs(), y.Sigs(), b)
					if !isDead {
						alive++
						continue
					}
					dead++
					if lower <= b || exact <= b {
						t.Fatalf("t=%.2f %v | %v: pre-pass dead at %d with budget %d, exact SLD %d",
							th, x.Tokens, y.Tokens, lower, b, exact)
					}
					if _, _, ok := sv.buildCost(xr, yr, b); ok {
						t.Fatalf("t=%.2f %v | %v: pre-pass dead at %d but buildCost's row minima stay within %d",
							th, x.Tokens, y.Tokens, lower, b)
					}
					if sld != lower || within || !pruned {
						t.Fatalf("t=%.2f %v | %v: pre-pass dead at %d but Verify returned (%d, %v, %v)",
							th, x.Tokens, y.Tokens, lower, sld, within, pruned)
					}
				}
				sigPruned += sv.SigPruned
			}
		}
	}
	if dead < 1000 || alive < 1000 {
		t.Fatalf("pre-pass killed %d pairs and passed %d: the input exercises one side only", dead, alive)
	}
	if sigPruned != int64(dead) {
		t.Fatalf("Verify counted %d pre-pass kills, the pre-pass decided %d", sigPruned, dead)
	}
}

// TestStoredSigEquivalence: token.New signs each token as BuildCorpus
// signs each distinct token, so the signature pre-pass reads the same
// words either way. The same pairs verify as corpus strings, as token.New
// strings and mixed (corpus probe, New candidates): every verdict — the
// lower bound reported for a pruned pair included — and the SigPruned
// count equal the corpus side's.
func TestStoredSigEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	news := make([]token.TokenizedString, 300)
	for i := range news {
		news[i] = spicedTS(rng)
	}
	built := token.BuildCorpusFromTokenized(news).Strings
	for i := range built {
		if !slices.Equal(built[i].Sigs(), news[i].Sigs()) || len(news[i].Sigs()) != news[i].Count() {
			t.Fatalf("string %d (%d tokens): BuildCorpus signatures %x, New signatures %x",
				i, news[i].Count(), built[i].Sigs(), news[i].Sigs())
		}
	}
	sides := [3]struct{ xs, ys []token.TokenizedString }{
		{built, built}, {news, news}, {built, news},
	}
	type verdict struct {
		sld            int
		within, pruned bool
	}
	for _, th := range []float64{0.1, 0.3, 0.5} {
		var vs [3]Verifier
		for p := range news {
			for _, i := range rng.Perm(len(news))[:1+rng.Intn(20)] {
				var want verdict
				for s, side := range sides {
					sld, within, pruned := vs[s].Verify(&side.xs[p], &side.ys[i], th)
					if got := (verdict{sld, within, pruned}); s == 0 {
						want = got
					} else if got != want {
						t.Fatalf("t=%.1f side %d %q | %q: %+v, corpus strings %+v",
							th, s, news[p].Tokens, news[i].Tokens, got, want)
					}
				}
			}
		}
		for s := range sides {
			if vs[s].SigPruned != vs[0].SigPruned {
				t.Fatalf("t=%.1f side %d: SigPruned %d, corpus strings %d", th, s, vs[s].SigPruned, vs[0].SigPruned)
			}
		}
		if vs[0].SigPruned == 0 {
			t.Fatalf("t=%.1f: the pre-pass decided no pair", th)
		}
	}
}
