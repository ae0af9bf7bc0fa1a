package tsj

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/token"
)

// joinCorpusReference computes the expected JoinCorpus result the slow
// way: the cutoff oracle's bipartite join of (live corpus strings,
// probes), with reference ids mapped back into corpus StringIDs / probe
// indices.
func joinCorpusReference(t *testing.T, pc *corpus.Corpus, probes []token.TokenizedString, opts Options) []Result {
	t.Helper()
	v := pc.View()
	var live []token.TokenizedString
	var liveIDs []token.StringID
	for sid, ok := range v.Alive {
		if ok {
			live = append(live, v.TC.Strings[sid])
			liveIDs = append(liveIDs, token.StringID(sid))
		}
	}
	strs := append(append([]token.TokenizedString(nil), live...), probes...)
	var mapped []Result
	for p, sld := range cutoffOracle(strs, len(live), opts) {
		mapped = append(mapped, Result{
			A:    liveIDs[p[0]],
			B:    token.StringID(p[1] - len(live)),
			SLD:  sld,
			NSLD: core.NSLDFromSLD(sld, strs[p[0]].AggregateLen(), strs[p[1]].AggregateLen()),
		})
	}
	slices.SortFunc(mapped, func(x, y Result) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return mapped
}

// TestJoinCorpusEquivalence is the acceptance property of the
// corpus-backed bipartite join: probing an opened corpus — including one
// with tombstones — returns byte-identical results to the per-call Join
// over (live corpus strings, probes), across thresholds, matching modes
// and the frequency cutoff.
func TestJoinCorpusEquivalence(t *testing.T) {
	all := namegen.Generate(namegen.Config{Seed: 71, NumNames: 380})
	names, probeNames := all[:260], all[260:] // one pool, so cross-set similarity exists
	probes := make([]token.TokenizedString, len(probeNames))
	for i, s := range probeNames {
		probes[i] = token.WhitespaceAndPunct(s)
	}
	pc := openSeeded(t, names, corpus.Options{})
	for _, sid := range []int{0, 3, 99, 200, 259} {
		if err := pc.Delete(token.StringID(sid)); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := false
	for _, th := range []float64{0.1, 0.3} {
		for _, mt := range []Matching{FuzzyTokenMatching, ExactTokenMatching} {
			for _, maxFreq := range []int{0, 8} {
				opts := DefaultOptions()
				opts.Threshold = th
				opts.Matching = mt
				opts.MaxTokenFreq = maxFreq
				want := joinCorpusReference(t, pc, probes, opts)
				got, gst, err := JoinCorpus(pc, probes, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("t=%.2f %v M=%d: corpus-backed join differs (%d vs %d pairs)",
						th, mt, maxFreq, len(got), len(want))
				}
				if len(got) > 0 {
					nonEmpty = true
					if gst.SharedTokenCandidates == 0 {
						t.Fatalf("t=%.2f %v: no shared-token candidates generated", th, mt)
					}
				}
			}
		}
	}
	if !nonEmpty {
		t.Fatal("every configuration joined to zero pairs; pick better seeds")
	}
}

// TestJoinCorpusEquivalenceAblations: both de-duplication strategies
// reproduce the reference result — reading the corpus's stored
// frequencies composes with either grouping rule, not just the default.
func TestJoinCorpusEquivalenceAblations(t *testing.T) {
	all := namegen.Generate(namegen.Config{Seed: 73, NumNames: 310})
	names, probeNames := all[:220], all[220:] // one pool, so cross-set similarity exists
	probes := make([]token.TokenizedString, len(probeNames))
	for i, s := range probeNames {
		probes[i] = token.WhitespaceAndPunct(s)
	}
	pc := openSeeded(t, names, corpus.Options{})
	for _, sid := range []int{5, 50, 219} {
		if err := pc.Delete(token.StringID(sid)); err != nil {
			t.Fatal(err)
		}
	}

	opts := DefaultOptions()
	opts.Threshold = 0.25
	want := joinCorpusReference(t, pc, probes, opts)
	if len(want) == 0 {
		t.Fatal("reference join produced no pairs; pick better seeds")
	}
	for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
		opts.Dedup = dedup
		got, _, err := JoinCorpus(pc, probes, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: corpus-backed join differs (%d vs %d pairs)", dedup, len(got), len(want))
		}
	}
}

// TestJoinCorpusStaleOrder: a corpus whose token frequencies drift
// between probe joins — adds and deletes interleaved after the first join
// — still probes exactly: each JoinCorpus derives its order from the
// frequencies it captures. JoinsServed counts every corpus join.
func TestJoinCorpusStaleOrder(t *testing.T) {
	all := namegen.Generate(namegen.Config{Seed: 75, NumNames: 340})
	names, probeNames := all[:240], all[240:] // one pool, so cross-set similarity exists
	probes := make([]token.TokenizedString, len(probeNames))
	for i, s := range probeNames {
		probes[i] = token.WhitespaceAndPunct(s)
	}
	pc := openSeeded(t, names[:120], corpus.Options{})
	joins := int64(0)
	nonEmpty := false
	check := func(round string) {
		for _, th := range []float64{0.15, 0.35} {
			opts := DefaultOptions()
			opts.Threshold = th
			want := joinCorpusReference(t, pc, probes, opts)
			got, _, err := JoinCorpus(pc, probes, opts)
			if err != nil {
				t.Fatal(err)
			}
			joins++
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s, t=%.2f: probe join differs (%d vs %d pairs)", round, th, len(got), len(want))
			}
			nonEmpty = nonEmpty || len(got) > 0
		}
	}
	check("before drift")
	for i := 120; i < len(names); i++ {
		if _, err := pc.Add(names[i]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := pc.Delete(token.StringID(i - 80)); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after drift")
	if !nonEmpty {
		t.Fatal("probes joined to zero pairs at every threshold; pick better seeds")
	}
	if got := pc.Stats().JoinsServed; got != joins {
		t.Fatalf("JoinsServed = %d after %d JoinCorpus calls", got, joins)
	}
}

// TestJoinCorpusEmptySides: empty probe sets, empty corpora, and
// token-less strings on either side behave exactly like Join's empty
// preamble.
func TestJoinCorpusEmptySides(t *testing.T) {
	opts := DefaultOptions()

	pc := openSeeded(t, []string{"alpha beta", "..."}, corpus.Options{})
	res, _, err := JoinCorpus(pc, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty probe set joined to %d pairs", len(res))
	}

	empty := openSeeded(t, nil, corpus.Options{})
	res, _, err = JoinCorpus(empty, []token.TokenizedString{token.WhitespaceAndPunct("alpha")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty corpus joined to %d pairs", len(res))
	}

	// Token-less on both sides pair at NSLD 0; the tombstoned token-less
	// corpus string must not.
	pc2 := openSeeded(t, []string{"---", "..."}, corpus.Options{})
	if err := pc2.Delete(1); err != nil {
		t.Fatal(err)
	}
	res, _, err = JoinCorpus(pc2, []token.TokenizedString{token.WhitespaceAndPunct("!!!")}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].A != 0 || res[0].B != 0 || res[0].NSLD != 0 {
		t.Fatalf("token-less pairing: %v", res)
	}
}

// TestJoinCorpusConcurrentWrites: a corpus join grows its own view of the
// corpus with the probes while a writer keeps adding strings with tokens
// new to the corpus and deleting others. Under -race this checks that the
// view and the corpus share no table either side writes. Afterwards the
// probes' tokens have reached neither the corpus's token table nor its
// frequencies, and a join over the quiet corpus is the reference's.
func TestJoinCorpusConcurrentWrites(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 67, NumNames: 400})
	pc := openSeeded(t, names[:100], corpus.Options{})
	probes := []token.TokenizedString{
		token.WhitespaceAndPunct(names[3]),
		token.WhitespaceAndPunct("qqprobeonly " + names[150]),
	}
	opts := DefaultOptions()
	done := make(chan error, 1)
	go func() {
		for i, n := range names[100:] {
			if _, err := pc.Add(fmt.Sprintf("%s zzwriter%d", n, i)); err != nil {
				done <- err
				return
			}
			if i%10 == 0 {
				if err := pc.Delete(token.StringID(i)); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for i := 0; i < 20; i++ {
		if _, _, err := JoinCorpus(pc, probes, opts); err != nil {
			t.Error(err)
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	v := pc.View()
	if _, ok := v.TC.TokenIDOf("qqprobeonly"); ok {
		t.Fatal("a probe-only token reached the corpus's token table")
	}
	freq := make([]int32, v.TC.NumTokens())
	for sid, alive := range v.Alive {
		for _, id := range v.TC.Members[sid] {
			if alive {
				freq[id]++
			}
		}
	}
	if !slices.Equal(v.TC.Freq, freq) {
		t.Fatal("the corpus's frequencies are not its live strings' counts")
	}
	got, _, err := JoinCorpus(pc, probes, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := joinCorpusReference(t, pc, probes, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("after concurrent writes: %v, want %v", got, want)
	}
}

// TestJoinCorpusAllocationsFlat: a one-probe JoinCorpus allocates about
// as many objects over 30,000 names as over 1,000. Its probe is interned
// under the corpus's read lock against the corpus's own intern map, so no
// call builds a map over the whole token space, which alone adds about 30
// allocations at 30,000 names. The slack of 20 covers the engine's
// recycled slabs, which move the count by up to 10 from run to run.
func TestJoinCorpusAllocationsFlat(t *testing.T) {
	probes := []token.TokenizedString{token.WhitespaceAndPunct("barak obama")}
	opts := DefaultOptions()
	allocs := make(map[int]float64)
	for _, n := range []int{1000, 30000} {
		names := namegen.Generate(namegen.Config{Seed: 5, NumNames: n})
		pc, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		toks := make([]token.TokenizedString, n)
		for i, s := range names {
			toks[i] = token.WhitespaceAndPunct(s)
		}
		if _, err := pc.AddTokenizedBatch(toks); err != nil {
			t.Fatal(err)
		}
		join := func() {
			if _, _, err := JoinCorpus(pc, probes, opts); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 { // grow the engine's recycled slabs first
			join()
		}
		allocs[n] = testing.AllocsPerRun(5, join)
		t.Logf("%d names: %.0f allocations per one-probe join", n, allocs[n])
	}
	if allocs[30000] > allocs[1000]+20 {
		t.Errorf("a one-probe JoinCorpus allocates %.0f objects over 30,000 names and %.0f over 1,000", allocs[30000], allocs[1000])
	}
}
