package tsj

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nsldtest"
	"repro/internal/token"
)

// buildBipartite merges two raw-name slices into one corpus with a
// boundary, mirroring how the public API drives Join.
func buildBipartite(r, p []string) (*token.Corpus, int) {
	combined := append(append([]string{}, r...), p...)
	return token.BuildCorpus(combined, token.WhitespaceAndPunct), len(r)
}

func TestJoinBipartiteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for _, threshold := range []float64{0.1, 0.2} {
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			rc := nameCorpus(rng, 70)
			pc := nameCorpus(rng, 70)
			rNames := make([]string, rc.NumStrings())
			for i, s := range rc.Strings {
				rNames[i] = s.String()
			}
			pNames := make([]string, pc.NumStrings())
			for i, s := range pc.Strings {
				pNames[i] = s.String()
			}
			c, nr := buildBipartite(rNames, pNames)
			opts := DefaultOptions()
			opts.Threshold = threshold
			opts.MaxTokenFreq = 0
			opts.Dedup = dedup
			got, st, err := Join(c, nr, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := nsldtest.Bipartite(c.Strings, nr, threshold, false)
			gs := resultSet(got)
			if len(gs) != len(want) {
				t.Fatalf("T=%v dedup=%v: got %d pairs, want %d\n%s",
					threshold, dedup, len(gs), len(want), describeDiff(want, gs, c))
			}
			for k, sld := range want {
				if g, ok := gs[k]; !ok || g != sld {
					t.Fatalf("pair %v: got (%d,%v), want %d", k, g, ok, sld)
				}
			}
			// Every result crosses the boundary.
			for _, r := range got {
				if int(r.A) >= nr || int(r.B) < nr {
					t.Fatalf("pair %+v does not cross the boundary %d", r, nr)
				}
			}
			if st.Results != int64(len(got)) {
				t.Fatalf("stats mismatch: %d vs %d", st.Results, len(got))
			}
		}
	}
}

// TestJoinSelfJoinEquivalence is the metamorphic statement of "the
// bipartite join is the self-join with cross-side enumeration"
// (Sec. II-B, III-G.1): on a random corpus cut at a random boundary,
// Join returns exactly the cross-boundary pairs of SelfJoin — same ids,
// same SLD, same NSLD — under the default options and under each
// de-duplication strategy.
func TestJoinSelfJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	nonEmpty := false
	for trial := 0; trial < 6; trial++ {
		names := make([]string, 0, 160)
		for _, ts := range nameCorpus(rng, 120).Strings {
			names = append(names, ts.String())
		}
		for i := 0; i < 30; i++ {
			names = append(names, perturbName(rng, names[rng.Intn(len(names))]))
		}
		names = append(names, "...", "---", "!!!") // token-less strings pair at NSLD 0
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		c := token.BuildCorpus(names, token.WhitespaceAndPunct)
		boundary := rng.Intn(c.NumStrings() + 1)

		configs := []Options{DefaultOptions()}
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			o := DefaultOptions()
			o.Threshold, o.MaxTokenFreq, o.Dedup = 0.1+0.2*rng.Float64(), 0, dedup
			configs = append(configs, o)
		}
		for _, opts := range configs {
			self, _, err := SelfJoin(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			var want []Result
			for _, r := range self {
				if int(r.A) < boundary && int(r.B) >= boundary {
					want = append(want, r)
				}
			}
			got, _, err := Join(c, boundary, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d boundary %d T=%.3f dedup=%v: Join has %d pairs, SelfJoin's cross-boundary subset %d",
					trial, boundary, opts.Threshold, opts.Dedup, len(got), len(want))
			}
			nonEmpty = nonEmpty || len(got) > 0
		}
	}
	if !nonEmpty {
		t.Fatal("every trial joined to zero pairs; pick better seeds")
	}
}

func TestJoinNoSameSidePairs(t *testing.T) {
	// Two identical names on the R side must NOT pair with each other.
	c, nr := buildBipartite(
		[]string{"anna lee", "anna lee"},
		[]string{"anna leigh", "bob ross"},
	)
	opts := DefaultOptions()
	// NSLD(anna lee, anna leigh): LD(lee, leigh) = 3, so 6/19 ≈ 0.316.
	opts.Threshold = 0.35
	opts.MaxTokenFreq = 0
	got, _, err := Join(c, nr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if int(r.A) >= nr || int(r.B) < nr {
			t.Fatalf("same-side pair leaked: %+v", r)
		}
	}
	// Both "anna lee" copies join "anna leigh".
	gs := resultSet(got)
	for _, want := range [][2]int{{0, 2}, {1, 2}} {
		if _, ok := gs[want]; !ok {
			t.Fatalf("missing %v in %v", want, gs)
		}
	}
}

func TestJoinExactTokenMatchingSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	rc := nameCorpus(rng, 80)
	rNames := make([]string, rc.NumStrings())
	for i, s := range rc.Strings {
		rNames[i] = s.String()
	}
	// P side: perturbed copies of R names.
	pNames := make([]string, len(rNames))
	for i, n := range rNames {
		pNames[i] = perturbName(rng, n)
	}
	c, nr := buildBipartite(rNames, pNames)
	base := DefaultOptions()
	base.Threshold = 0.2
	base.MaxTokenFreq = 0
	full, _, err := Join(c, nr, base)
	if err != nil {
		t.Fatal(err)
	}
	ex := base
	ex.Matching = ExactTokenMatching
	approx, _, err := Join(c, nr, ex)
	if err != nil {
		t.Fatal(err)
	}
	fs := resultSet(full)
	for k := range resultSet(approx) {
		if _, ok := fs[k]; !ok {
			t.Fatalf("exact-token-matching invented pair %v", k)
		}
	}
}

func TestJoinEmptyStringsAcrossBoundary(t *testing.T) {
	c, nr := buildBipartite([]string{"...", "john smith"}, []string{"!!!", "---"})
	opts := DefaultOptions()
	got, st, err := Join(c, nr, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The single empty R string pairs with both empty P strings; the two
	// empty P strings do NOT pair with each other (same side).
	if st.EmptyStringPairs != 2 || len(got) != 2 {
		t.Fatalf("got %d pairs, EmptyStringPairs=%d, want 2/2: %+v", len(got), st.EmptyStringPairs, got)
	}
}

func TestJoinBoundaryValidation(t *testing.T) {
	c, _ := buildBipartite([]string{"a"}, []string{"b"})
	opts := DefaultOptions()
	if _, _, err := Join(c, 5, opts); err == nil {
		t.Fatal("out-of-range boundary must error")
	}
	if _, _, err := Join(c, -1, opts); err == nil {
		t.Fatal("negative boundary must error")
	}
	opts.Threshold = 1.5
	if _, _, err := Join(c, 1, opts); err == nil {
		t.Fatal("bad threshold must error")
	}
}
