package tsj

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/token"
)

// openSeeded opens a persistent corpus in a temp dir and adds names.
func openSeeded(t *testing.T, names []string, opt corpus.Options) *corpus.Corpus {
	t.Helper()
	opt.DisableSync = true
	pc, err := corpus.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	for _, n := range names {
		if _, err := pc.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	return pc
}

// TestPrefixEquivalenceStaleCorpusOrder: a corpus whose token
// frequencies drift between joins — adds and deletes interleaved after
// the first join — joins exactly like the naive join over its live
// strings, at every threshold and under both matching modes. Each corpus
// join derives its prefix order from the frequencies it captures, so an
// order an earlier join used never carries over. JoinsServed counts every
// corpus join.
func TestPrefixEquivalenceStaleCorpusOrder(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 61, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	pc := openSeeded(t, names[:150], corpus.Options{})
	deleted := map[int]bool{}
	joins := int64(0)
	check := func(round string) {
		for _, th := range []float64{0.1, 0.25, 0.4} {
			for _, mt := range []Matching{FuzzyTokenMatching, ExactTokenMatching} {
				opts := DefaultOptions()
				opts.Threshold = th
				opts.Matching = mt
				opts.MaxTokenFreq = 0 // unlimited, so restricting to live ids is exact

				want := cutoffOracle(c.Strings, -1, opts)
				maps.DeleteFunc(want, func(p [2]int, _ int) bool {
					return p[1] >= pc.Len() || deleted[p[0]] || deleted[p[1]]
				})
				got, gst, err := SelfJoinCorpus(pc, opts)
				if err != nil {
					t.Fatal(err)
				}
				joins++
				if err := equalPairs(want, resultSet(got)); err != nil {
					t.Fatalf("%s, t=%.2f %v: corpus join: %v", round, th, mt, err)
				}
				if gst.SharedTokenCandidates == 0 && len(want) > 0 {
					t.Fatalf("%s, t=%.2f: no shared-token candidates generated", round, th)
				}
			}
		}
	}
	check("before drift")
	for i := 150; i < len(names); i++ {
		if _, err := pc.Add(names[i]); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			sid := i - 100
			if err := pc.Delete(token.StringID(sid)); err != nil {
				t.Fatal(err)
			}
			deleted[sid] = true
		}
	}
	check("after drift")
	if got := pc.Stats().JoinsServed; got != joins {
		t.Fatalf("JoinsServed = %d after %d SelfJoinCorpus calls", got, joins)
	}
}

// TestPrefixEquivalenceCorpusMaxFreqCutoff: the corpus join's prefixes,
// ordered by the corpus's stored frequencies, compose with the
// high-frequency cutoff M exactly like the per-call pipeline (prefixes
// over kept tokens only), and both return the cutoff oracle's pairs.
func TestPrefixEquivalenceCorpusMaxFreqCutoff(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 62, NumNames: 300})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	pc := openSeeded(t, names, corpus.Options{})
	for _, maxFreq := range []int{3, 10, 50} {
		opts := DefaultOptions()
		opts.Threshold = 0.25
		opts.MaxTokenFreq = maxFreq
		want, _ := joinOracle(t, fmt.Sprintf("M=%d", maxFreq), c, -1, opts)
		got, _, err := SelfJoinCorpus(pc, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("M=%d: corpus join differs under the cutoff (%d vs %d pairs)",
				maxFreq, len(got), len(want))
		}
	}
}

// TestSelfJoinCorpusDeletes: tombstoned strings vanish from the join —
// the result set equals the full join restricted to live pairs, ids
// preserved.
func TestSelfJoinCorpusDeletes(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 64, NumNames: 250})
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	pc := openSeeded(t, names, corpus.Options{})
	deleted := map[token.StringID]bool{}
	for _, sid := range []token.StringID{0, 7, 100, 101, 249} {
		if err := pc.Delete(sid); err != nil {
			t.Fatal(err)
		}
		deleted[sid] = true
	}
	opts := DefaultOptions()
	opts.Threshold = 0.25
	opts.MaxTokenFreq = 0 // unlimited, so live-restriction is exact
	full, _, err := SelfJoin(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []Result
	for _, r := range full {
		if !deleted[r.A] && !deleted[r.B] {
			want = append(want, r)
		}
	}
	got, _, err := SelfJoinCorpus(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test corpus produced no surviving pairs; pick better seeds")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("deleted-aware join differs (%d vs %d pairs)", len(got), len(want))
	}
}

// TestSelfJoinCorpusAcrossRestart: a reopened corpus (snapshot + WAL
// replay) joins identically to the never-closed one.
func TestSelfJoinCorpusAcrossRestart(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 65, NumNames: 200})
	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if _, err := pc.Add(n); err != nil {
			t.Fatal(err)
		}
		if i == len(names)/2 {
			if err := pc.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := DefaultOptions()
	opts.Threshold = 0.2
	opts.MaxTokenFreq = 0
	want, _, err := SelfJoinCorpus(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	pc.Close()

	r, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _, err := SelfJoinCorpus(r, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restarted corpus join differs (%d vs %d pairs)", len(got), len(want))
	}
}

// TestSelfJoinCorpusEmpty: joining an empty corpus is a no-op, and
// token-less strings pair up exactly as in the per-call pipeline.
func TestSelfJoinCorpusEmpty(t *testing.T) {
	pc := openSeeded(t, nil, corpus.Options{})
	opts := DefaultOptions()
	res, _, err := SelfJoinCorpus(pc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty corpus joined to %d pairs", len(res))
	}

	pc2 := openSeeded(t, []string{"...", "---", "real name"}, corpus.Options{})
	res, _, err = SelfJoinCorpus(pc2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].A != 0 || res[0].B != 1 {
		t.Fatalf("token-less pairing: %v", res)
	}
}
