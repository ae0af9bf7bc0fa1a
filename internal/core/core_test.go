package core

import (
	"math/rand"
	"testing"

	"repro/internal/strdist"
	"repro/internal/token"
)

func ts(tokens ...string) token.TokenizedString { return token.New(tokens) }

func TestSLDPaperExamples(t *testing.T) {
	// Sec. II-D: x = {chan, kalan}, y = {chank, alan}, z = {alan}.
	x := ts("chan", "kalan")
	y := ts("chank", "alan")
	z := ts("alan")
	if got := SLD(x, y); got != 2 {
		t.Errorf("SLD(x,y) = %d, want 2", got)
	}
	if got := SLD(x, z); got != 5 {
		t.Errorf("SLD(x,z) = %d, want 5", got)
	}
	// NSLD(x,y) = 2*2/(9+9+2) = 0.2.
	if got := NSLD(x, y); got != 0.2 {
		t.Errorf("NSLD(x,y) = %v, want 0.2", got)
	}
}

func TestSLDEmptyCases(t *testing.T) {
	empty := ts()
	ab := ts("ab", "c")
	if got := SLD(empty, ab); got != 3 {
		t.Errorf("SLD(ε, {ab,c}) = %d, want 3 (grow both tokens)", got)
	}
	if got := SLD(ab, empty); got != 3 {
		t.Errorf("SLD({ab,c}, ε) = %d, want 3", got)
	}
	if got := SLD(empty, empty); got != 0 {
		t.Errorf("SLD(ε, ε) = %d, want 0", got)
	}
	// Lemma 5 extreme: NSLD(ε, y) = 1 for non-empty y.
	if got := NSLD(empty, ab); got != 1 {
		t.Errorf("NSLD(ε, y) = %v, want 1", got)
	}
}

func TestSLDTokenCountMismatch(t *testing.T) {
	// Dropping a token costs its full length via the ε padding.
	a := ts("alan")
	b := ts("alan", "chan")
	if got := SLD(a, b); got != 4 {
		t.Errorf("SLD = %d, want 4", got)
	}
	// Shuffles are free: multisets have no order.
	p := ts("john", "smith")
	q := ts("smith", "john")
	if got := SLD(p, q); got != 0 {
		t.Errorf("SLD of shuffled tokens = %d, want 0", got)
	}
}

func TestSLDPrefersBestAlignment(t *testing.T) {
	// The optimal matching is not the lexicographic pairing: sorted order
	// is {aaa, zzz} vs {aab, zzy}; identity alignment costs 1+1=2, the
	// crossed alignment would cost 3+3=6.
	x := ts("aaa", "zzz")
	y := ts("zzy", "aab")
	if got := SLD(x, y); got != 2 {
		t.Errorf("SLD = %d, want 2", got)
	}
}

// perturbTS applies 0-2 small edits (char substitution/insertion/deletion,
// token drop/duplicate) to a tokenized string, mimicking the adversarial
// edits of the motivating application.
func perturbTS(rng *rand.Rand, x token.TokenizedString) token.TokenizedString {
	toks := append([]string(nil), x.Tokens...)
	for e := rng.Intn(3); e > 0 && len(toks) > 0; e-- {
		i := rng.Intn(len(toks))
		r := []rune(toks[i])
		switch rng.Intn(5) {
		case 0: // substitute
			if len(r) > 0 {
				r[rng.Intn(len(r))] = rune('a' + rng.Intn(4))
			}
		case 1: // insert
			p := rng.Intn(len(r) + 1)
			r = append(r[:p], append([]rune{rune('a' + rng.Intn(4))}, r[p:]...)...)
		case 2: // delete char
			if len(r) > 1 {
				p := rng.Intn(len(r))
				r = append(r[:p], r[p+1:]...)
			}
		case 3: // drop token
			toks = append(toks[:i], toks[i+1:]...)
			continue
		case 4: // duplicate token
			toks = append(toks, string(r))
		}
		toks[i] = string(r)
	}
	return token.New(toks)
}

// randomTS builds a random tokenized string with up to maxTok tokens of up
// to maxLen chars over a tiny alphabet, so collisions are common.
func randomTS(rng *rand.Rand, maxTok, maxLen int) token.TokenizedString {
	n := rng.Intn(maxTok + 1)
	toks := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(maxLen)
		b := make([]rune, l)
		for j := range b {
			b[j] = rune('a' + rng.Intn(4))
		}
		toks = append(toks, string(b))
	}
	return token.New(toks)
}

func TestNSLDMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1500; i++ {
		x := randomTS(rng, 4, 5)
		y := randomTS(rng, 4, 5)
		z := randomTS(rng, 4, 5)
		// Identity.
		if d := NSLD(x, x); d != 0 {
			t.Fatalf("NSLD(x,x) = %v for %v", d, x)
		}
		// Symmetry.
		if NSLD(x, y) != NSLD(y, x) {
			t.Fatalf("NSLD asymmetric for %v, %v", x, y)
		}
		// Range (Lemma 5).
		if d := NSLD(x, y); d < 0 || d > 1 {
			t.Fatalf("NSLD out of range: %v", d)
		}
		// Triangle inequality (Theorem 2).
		if NSLD(x, y)+NSLD(y, z) < NSLD(x, z)-1e-12 {
			t.Fatalf("NSLD triangle violated: d(x,y)=%v d(y,z)=%v d(x,z)=%v for %v | %v | %v",
				NSLD(x, y), NSLD(y, z), NSLD(x, z), x, y, z)
		}
		// SLD triangle inequality (Lemma 4).
		if SLD(x, y)+SLD(y, z) < SLD(x, z) {
			t.Fatalf("SLD triangle violated for %v | %v | %v", x, y, z)
		}
	}
}

func TestNSLDIdentityOfIndiscernibles(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 800; i++ {
		x := randomTS(rng, 3, 4)
		y := randomTS(rng, 3, 4)
		if NSLD(x, y) == 0 && !x.Equal(y) {
			t.Fatalf("NSLD = 0 for distinct multisets %v, %v", x, y)
		}
	}
}

// TestLemma6LowerBound checks the half of Lemma 6 the TSJ length filter
// relies on: 1 - L(x)/L(y) <= NSLD(x, y) for L(x) <= L(y).
//
// Note: the paper's stated *upper* bound NSLD <= 2/(L(x)/L(y)+2) —
// equivalently SLD <= L(y) — does not hold for token multisets with
// mismatched shapes. Counterexample: x = {aaa, bbb}, y = {c, ddddd} has
// L(x) = L(y) = 6 but SLD = 8 (every bijection pays max(|xi|, |yj|) on both
// edges), so NSLD = 0.8 > 2/3. Tokens cannot merge or split under
// Definition 3, so the "at most L(y) edits" intuition from plain strings
// (Lemma 3) fails. No algorithm in the paper (or here) uses the upper bound
// for pruning, so correctness is unaffected.
func TestLemma6LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1000; i++ {
		x := randomTS(rng, 4, 5)
		y := randomTS(rng, 4, 5)
		lx, ly := x.AggregateLen(), y.AggregateLen()
		if lx > ly {
			x, y = y, x
			lx, ly = ly, lx
		}
		if ly == 0 {
			continue
		}
		d := NSLD(x, y)
		lo := 1 - float64(lx)/float64(ly)
		if d < lo-1e-12 {
			t.Fatalf("Lemma 6 lower bound violated: d=%v < %v for %v | %v", d, lo, x, y)
		}
	}
}

// TestLemma6UpperBoundCounterexample pins down the erratum described above
// so it stays documented if anyone "fixes" the filter to use it.
func TestLemma6UpperBoundCounterexample(t *testing.T) {
	x := ts("aaa", "bbb")
	y := ts("c", "ddddd")
	if lx, ly := x.AggregateLen(), y.AggregateLen(); lx != 6 || ly != 6 {
		t.Fatalf("setup: lengths %d, %d", lx, ly)
	}
	if got := SLD(x, y); got != 8 {
		t.Fatalf("SLD = %d, want 8", got)
	}
	d := NSLD(x, y)
	hi := 2.0 / (1.0 + 2.0) // paper's claimed upper bound for L(x)=L(y)
	if d <= hi {
		t.Fatalf("counterexample no longer violates the claimed bound: d=%v <= %v", d, hi)
	}
}

func TestGreedyNeverUnderestimates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 1500; i++ {
		x := randomTS(rng, 5, 5)
		y := randomTS(rng, 5, 5)
		exact, greedy := SLD(x, y), SLDGreedy(x, y)
		if greedy < exact {
			t.Fatalf("greedy %d < exact %d for %v | %v", greedy, exact, x, y)
		}
		if NSLDFromSLD(greedy, x.AggregateLen(), y.AggregateLen()) < NSLD(x, y)-1e-12 {
			t.Fatalf("greedy NSLD underestimates for %v | %v", x, y)
		}
	}
}

// TestTheorem3 verifies the threshold carry-over that powers TSJ: whenever
// NSLD(x, y) <= T, some token pair has NLD <= T.
func TestTheorem3(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	thresholds := []float64{0.025, 0.1, 0.225, 0.4}
	checked := 0
	for i := 0; i < 4000; i++ {
		x := randomTS(rng, 4, 5)
		if x.Count() == 0 {
			continue
		}
		// Derive y from x by a small random perturbation so that pairs
		// within the thresholds actually occur.
		y := perturbTS(rng, x)
		if y.Count() == 0 {
			continue
		}
		sld := SLD(x, y)
		for _, T := range thresholds {
			if !WithinNSLD(sld, x.AggregateLen(), y.AggregateLen(), T) {
				continue
			}
			checked++
			found := false
			for i := 0; i < x.Count() && !found; i++ {
				for j := 0; j < y.Count() && !found; j++ {
					ld := strdist.LevenshteinRunes(x.TokenRunes(i), y.TokenRunes(j))
					if strdist.WithinNLD(ld, len(x.TokenRunes(i)), len(y.TokenRunes(j)), T) {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("Theorem 3 violated at T=%v for %v | %v (NSLD=%v)", T, x, y, NSLD(x, y))
			}
		}
	}
	if checked < 100 {
		t.Fatalf("too few qualifying pairs exercised: %d", checked)
	}
}

func TestWithinNSLDMatchesNSLD(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 1000; i++ {
		x := randomTS(rng, 4, 5)
		y := randomTS(rng, 4, 5)
		sld := SLD(x, y)
		for _, T := range []float64{0.05, 0.1, 0.2, 0.5} {
			got := WithinNSLD(sld, x.AggregateLen(), y.AggregateLen(), T)
			want := NSLD(x, y) <= T
			// The rearranged form must agree except possibly exactly at the
			// threshold where float rounding differs; detect real conflicts
			// by re-deriving from integers.
			if got != want {
				lhs := 2 * float64(sld)
				rhs := T * float64(x.AggregateLen()+y.AggregateLen()+sld)
				if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("WithinNSLD disagrees beyond rounding: sld=%d la=%d lb=%d T=%v",
						sld, x.AggregateLen(), y.AggregateLen(), T)
				}
			}
		}
	}
}
