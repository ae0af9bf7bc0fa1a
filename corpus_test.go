package tsjoin

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/token"
)

// TestOpenCorpusJoinAndRestart drives the public persistent-corpus API
// end to end: add, delete, self-join at two thresholds, snapshot,
// reopen, identical join.
func TestOpenCorpusJoinAndRestart(t *testing.T) {
	names := []string{
		"barak obama", "barack obama", "barak h obama",
		"angela merkel", "angela merkle",
		"emmanuel macron", "emanuel macron",
		"unrelated person",
	}
	dir := t.TempDir()
	c, err := OpenCorpus(dir, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		id, err := c.Add(n)
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("Add id = %d, want %d", id, i)
		}
	}
	if err := c.Delete(2); err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(names) || c.Live() != len(names)-1 {
		t.Fatalf("Len=%d Live=%d", c.Len(), c.Live())
	}

	loose, err := c.SelfJoin(Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := c.SelfJoin(Options{Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(loose) == 0 || len(tight) >= len(loose) {
		t.Fatalf("threshold sweep implausible: %d pairs at 0.3, %d at 0.05", len(loose), len(tight))
	}
	for _, p := range loose {
		if p.A == 2 || p.B == 2 {
			t.Fatalf("deleted id joined: %+v", p)
		}
	}
	// The corpus join must agree with the plain one-shot join on the live
	// strings (ids preserved through the tombstone).
	var liveNames []string
	for i, n := range names {
		if i == 2 {
			n = "\x00placeholder-never-matches-anything-at-all"
		}
		liveNames = append(liveNames, n)
	}
	want, err := SelfJoin(liveNames, Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, loose) {
		t.Fatalf("corpus join %v != one-shot join %v", loose, want)
	}

	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCorpus(dir, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	again, err := r.SelfJoin(Options{Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loose, again) {
		t.Fatal("reopened corpus joins differently")
	}
}

// TestCorpusJoinUsesCorpusTokenizer: with Options.Tokenizer nil, Join
// tokenizes its probes with the corpus's tokenizer, as Add tokenized the
// stored strings. Under a case-sensitive tokenizer a probe folded to
// lower case would miss its own stored copy at T = 0.
func TestCorpusJoinUsesCorpusTokenizer(t *testing.T) {
	c, err := OpenCorpus(t.TempDir(), CorpusOptions{Tokenizer: token.CaseSensitivePunct, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []string{"Barak Obama", "barak obama"} {
		if _, err := c.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Join([]string{"Barak Obama"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Pair{{A: 0, B: 0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Join at T=0 = %+v, want %+v", got, want)
	}
	// An explicit tokenizer still wins: folded, the probe is the second
	// stored string.
	got, err = c.Join([]string{"Barak Obama"}, Options{Tokenizer: Tokenize})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Pair{{A: 1, B: 0}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Join with Tokenize at T=0 = %+v, want %+v", got, want)
	}
}

// TestConcurrentMatcherFromCorpus: public warm-start path — matcher adds
// persist, and a rebuilt matcher answers identically.
func TestConcurrentMatcherFromCorpus(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCorpus(dir, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewConcurrentMatcherFromCorpus(c, ConcurrentMatcherOptions{
		MatcherOptions: MatcherOptions{Threshold: 0.2},
		Shards:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"john smith", "jon smith", "ann lee", "an lee"}
	for _, n := range names {
		if _, _, err := m.AddDurable(n); err != nil {
			t.Fatal(err)
		}
	}
	want := m.Query("jonn smith")
	m.Close()
	c.Close()

	c2, err := OpenCorpus(dir, CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	m2, err := NewConcurrentMatcherFromCorpus(c2, ConcurrentMatcherOptions{
		MatcherOptions: MatcherOptions{Threshold: 0.2},
		Shards:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != len(names) {
		t.Fatalf("warm Len = %d, want %d", m2.Len(), len(names))
	}
	got := m2.Query("jonn smith")
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("warm-restart query differs: %v != %v", got, want)
	}
}

// TestCorpusRefusesWritesWhileAttached: the Corpus write methods fail at
// once with ErrAttached, and change nothing, while a ConcurrentMatcher is
// attached; the matcher's writes go on, and its Close hands the write
// path back.
func TestCorpusRefusesWritesWhileAttached(t *testing.T) {
	c, err := OpenCorpus(t.TempDir(), CorpusOptions{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := NewConcurrentMatcherFromCorpus(c, ConcurrentMatcherOptions{MatcherOptions: MatcherOptions{Threshold: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AddDurable("john smith"); err != nil {
		t.Fatal(err)
	}
	lsn := c.LSN()
	if _, err := c.Add("jon smith"); !errors.Is(err, ErrAttached) {
		t.Fatalf("Add: %v, want ErrAttached", err)
	}
	if _, err := c.AddBatch([]string{"a b"}); !errors.Is(err, ErrAttached) {
		t.Fatalf("AddBatch: %v, want ErrAttached", err)
	}
	if err := c.Delete(0); !errors.Is(err, ErrAttached) {
		t.Fatalf("Delete: %v, want ErrAttached", err)
	}
	if c.LSN() != lsn || c.Len() != 1 {
		t.Fatalf("refused writes moved the corpus to LSN %d, Len %d", c.LSN(), c.Len())
	}
	if err := m.Delete(0); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := c.Add("jon smith"); err != nil {
		t.Fatalf("Add after the matcher closed: %v", err)
	}
}
