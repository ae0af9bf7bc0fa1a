package tsj

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/nsldtest"
	"repro/internal/token"
)

// nameCorpus generates a corpus of synthetic names with planted
// near-duplicate rings, mimicking the motivating application.
func nameCorpus(rng *rand.Rand, n int) *token.Corpus {
	firsts := []string{"barak", "john", "mary", "chun", "ahmed", "wei", "olga", "juan"}
	lasts := []string{"obama", "smith", "huang", "metwally", "chen", "garcia", "ivanova"}
	var raw []string
	for len(raw) < n {
		name := firsts[rng.Intn(len(firsts))] + " " + lasts[rng.Intn(len(lasts))]
		if rng.Intn(3) == 0 {
			name += " " + string(rune('a'+rng.Intn(26)))
		}
		raw = append(raw, name)
		// Ring members: small adversarial edits.
		for k := 0; k < rng.Intn(3) && len(raw) < n; k++ {
			raw = append(raw, perturbName(rng, name))
		}
	}
	return token.BuildCorpus(raw, token.WhitespaceAndPunct)
}

func perturbName(rng *rand.Rand, name string) string {
	r := []rune(name)
	switch rng.Intn(4) {
	case 0: // substitute a letter
		p := rng.Intn(len(r))
		if r[p] != ' ' {
			r[p] = rune('a' + rng.Intn(26))
		}
	case 1: // insert a letter
		p := rng.Intn(len(r) + 1)
		r = append(r[:p], append([]rune{rune('a' + rng.Intn(26))}, r[p:]...)...)
	case 2: // delete a letter
		p := rng.Intn(len(r))
		if r[p] != ' ' {
			r = append(r[:p], r[p+1:]...)
		}
	case 3: // swap token order (free under NSLD)
		return name + ""
	}
	return string(r)
}

func resultSet(rs []Result) map[[2]int]int {
	m := make(map[[2]int]int, len(rs))
	for _, r := range rs {
		m[[2]int{int(r.A), int(r.B)}] = r.SLD
	}
	return m
}

func TestSelfJoinExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, threshold := range []float64{0.05, 0.1, 0.225} {
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			c := nameCorpus(rng, 120)
			opts := DefaultOptions()
			opts.Threshold = threshold
			opts.MaxTokenFreq = 0 // unlimited: exact join
			opts.Dedup = dedup
			got, st, err := SelfJoin(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := nsldtest.SelfJoin(c.Strings, threshold, false)
			gs := resultSet(got)
			if len(gs) != len(want) {
				t.Fatalf("T=%v dedup=%v: got %d pairs, want %d\n%s",
					threshold, dedup, len(gs), len(want), describeDiff(want, gs, c))
			}
			for k, sld := range want {
				if g, ok := gs[k]; !ok || g != sld {
					t.Fatalf("T=%v dedup=%v: pair %v got (%d,%v) want %d", threshold, dedup, k, g, ok, sld)
				}
			}
			if int64(len(got)) != st.Results {
				t.Fatalf("stats Results=%d, len(results)=%d", st.Results, len(got))
			}
		}
	}
}

func describeDiff(want, got map[[2]int]int, c *token.Corpus) string {
	s := ""
	for k := range want {
		if _, ok := got[k]; !ok {
			s += fmt.Sprintf("missing %v (%q | %q)\n", k, c.Strings[k[0]].String(), c.Strings[k[1]].String())
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			s += fmt.Sprintf("extra %v (%q | %q)\n", k, c.Strings[k[0]].String(), c.Strings[k[1]].String())
		}
	}
	return s
}

func TestSelfJoinPaperExample(t *testing.T) {
	raw := []string{"Barak Obama", "Obamma, Boraak H.", "Burak Ubama", "John Smith"}
	c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
	opts := DefaultOptions()
	opts.Threshold = 0.2
	opts.MaxTokenFreq = 0
	got, _, err := SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	// At T=0.2 only {barak obama} ~ {burak ubama} (NSLD = 4/22 ≈ 0.18).
	if len(got) != 1 || got[0].A != 0 || got[0].B != 2 {
		t.Fatalf("T=0.2: got %+v, want exactly (0,2)", got)
	}
	// At T=0.3 the Boraak H. Obamma variant joins too (NSLD = 8/27 ≈ 0.296).
	opts.Threshold = 0.3
	got, _, err = SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	gs := resultSet(got)
	for _, want := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if _, ok := gs[want]; !ok && want != [2]int{1, 2} {
			t.Fatalf("T=0.3: missing pair %v in %v", want, gs)
		}
	}
	if _, ok := gs[[2]int{0, 3}]; ok {
		t.Fatal("john smith must not join barak obama")
	}
}

func TestExactTokenMatchingIsSubsetWithPrecisionOne(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	c := nameCorpus(rng, 150)
	base := DefaultOptions()
	base.Threshold = 0.2
	base.MaxTokenFreq = 0

	fuzzy, _, err := SelfJoin(c, base)
	if err != nil {
		t.Fatal(err)
	}
	exact := base
	exact.Matching = ExactTokenMatching
	approx, _, err := SelfJoin(c, exact)
	if err != nil {
		t.Fatal(err)
	}
	fs := resultSet(fuzzy)
	for k, sld := range resultSet(approx) {
		want, ok := fs[k]
		if !ok || want != sld {
			t.Fatalf("exact-token-matching produced pair %v not in fuzzy results", k)
		}
	}
	if len(approx) > len(fuzzy) {
		t.Fatal("approximation cannot find more pairs than fuzzy")
	}
}

func TestGreedyAligningIsSubsetWithPrecisionOne(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	c := nameCorpus(rng, 150)
	base := DefaultOptions()
	base.Threshold = 0.225
	base.MaxTokenFreq = 0

	hung, _, err := SelfJoin(c, base)
	if err != nil {
		t.Fatal(err)
	}
	gr := base
	gr.Aligning = GreedyAligning
	greedy, _, err := SelfJoin(c, gr)
	if err != nil {
		t.Fatal(err)
	}
	hs := resultSet(hung)
	for k := range resultSet(greedy) {
		if _, ok := hs[k]; !ok {
			t.Fatalf("greedy verified pair %v that exact verification rejects", k)
		}
	}
	// Precision 1: every greedy pair's true NSLD is within threshold.
	for _, r := range greedy {
		sld := core.SLD(c.Strings[r.A], c.Strings[r.B])
		if !core.WithinNSLD(sld, c.Strings[r.A].AggregateLen(), c.Strings[r.B].AggregateLen(), base.Threshold) {
			t.Fatalf("greedy emitted false positive %+v", r)
		}
	}
}

func TestMaxTokenFreqDropsOnlyRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	c := nameCorpus(rng, 200)
	base := DefaultOptions()
	base.Threshold = 0.15
	base.MaxTokenFreq = 0
	full, _, err := SelfJoin(c, base)
	if err != nil {
		t.Fatal(err)
	}
	lim := base
	lim.MaxTokenFreq = 5
	limited, st, err := SelfJoin(c, lim)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedTokens == 0 {
		t.Fatal("cutoff must drop some tokens in this corpus")
	}
	fs := resultSet(full)
	for k := range resultSet(limited) {
		if _, ok := fs[k]; !ok {
			t.Fatalf("M-cutoff introduced pair %v not in full results", k)
		}
	}
	if len(limited) > len(full) {
		t.Fatal("M-cutoff cannot increase results")
	}
}

func TestSelfJoinEmptyStrings(t *testing.T) {
	raw := []string{"...", "---", "john smith", "!!!"}
	c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
	opts := DefaultOptions()
	opts.Threshold = 0.1
	got, st, err := SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Three token-less strings form 3 zero-distance pairs.
	if st.EmptyStringPairs != 3 {
		t.Fatalf("EmptyStringPairs = %d, want 3", st.EmptyStringPairs)
	}
	gs := resultSet(got)
	for _, k := range [][2]int{{0, 1}, {0, 3}, {1, 3}} {
		if _, ok := gs[k]; !ok {
			t.Fatalf("missing empty pair %v", k)
		}
	}
	if len(got) != 3 {
		t.Fatalf("got %d pairs, want 3", len(got))
	}
}

func TestSelfJoinThresholdValidation(t *testing.T) {
	c := token.BuildCorpus([]string{"a b", "a c"}, token.WhitespaceAndPunct)
	pc := openSeeded(t, []string{"a b"}, corpus.Options{})
	for _, bad := range []float64{-0.1, 1.0, 2.5, math.NaN()} {
		opts := DefaultOptions()
		opts.Threshold = bad
		for name, join := range map[string]func() ([]Result, *Stats, error){
			"SelfJoin":       func() ([]Result, *Stats, error) { return SelfJoin(c, opts) },
			"Join":           func() ([]Result, *Stats, error) { return Join(c, 1, opts) },
			"SelfJoinCorpus": func() ([]Result, *Stats, error) { return SelfJoinCorpus(pc, opts) },
			"JoinCorpus":     func() ([]Result, *Stats, error) { return JoinCorpus(pc, c.Strings, opts) },
		} {
			if _, _, err := join(); err == nil {
				t.Fatalf("%s: threshold %v must be rejected", name, bad)
			}
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	c := nameCorpus(rng, 100)
	opts := DefaultOptions()
	opts.Threshold = 0.15
	opts.MaxTokenFreq = 0
	_, st, err := SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.DedupedCandidates != st.LengthPruned+st.LBPruned+st.Verified {
		t.Fatalf("candidate accounting broken: deduped=%d len=%d lb=%d verified=%d",
			st.DedupedCandidates, st.LengthPruned, st.LBPruned, st.Verified)
	}
	if len(st.Pipeline.Jobs) < 4 {
		t.Fatalf("fuzzy pipeline must have >= 4 jobs, got %d", len(st.Pipeline.Jobs))
	}
	if st.Pipeline.TotalWork() <= 0 {
		t.Fatal("pipeline work must be positive")
	}
}
