package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/namegen"
	"repro/internal/nsldtest"
	"repro/internal/token"
)

// TestShardedEquivalence: identical corpora fed to matchers of several
// shard counts return the oracle's match sets under the exact and greedy
// configurations. The lossy configurations (finite MaxTokenFreq,
// exact-token matching) have no oracle: at one shard their matches are a
// subset of the exact oracle's, and every other shard count must return
// exactly the one-shard matches.
func TestShardedEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 41, NumNames: 300})
	for _, cfg := range []Options{
		{Threshold: 0.1},
		{Threshold: 0.2},
		{Threshold: 0.3, MaxTokenFreq: 5},
		{Threshold: 0.15, Greedy: true},
		{Threshold: 0.15, ExactTokensOnly: true},
	} {
		lossy := cfg.MaxTokenFreq > 0 || cfg.ExactTokensOnly
		oracle := oracleStream(names, cfg.Threshold, cfg.Greedy)
		oneShard, _ := streamAll(t, names, cfg, 1)
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("T=%v/M=%d/greedy=%v/exact=%v/shards=%d",
				cfg.Threshold, cfg.MaxTokenFreq, cfg.Greedy, cfg.ExactTokensOnly, shards),
				func(t *testing.T) {
					got, st := streamAll(t, names, cfg, shards)
					switch {
					case !lossy:
						checkStreams(t, "oracle", oracle, got)
					case shards == 1:
						if err := nsldtest.Subset(pairsOf(oracle), pairsOf(got)); err != nil {
							t.Fatalf("exact oracle: %v", err)
						}
					default:
						checkStreams(t, "one shard", oneShard, got)
					}
					if st.Strings != len(names) {
						t.Fatalf("Strings = %d, want %d", st.Strings, len(names))
					}
				})
		}
	}
}

// TestShardedQueryMatchesSequential: Query on a built index returns the
// oracle's matches against everything added, and indexes nothing.
func TestShardedQueryMatchesSequential(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 42, NumNames: 250})
	probes := namegen.Generate(namegen.Config{Seed: 43, NumNames: 60})
	const threshold = 0.2
	strs := tokenizeAll(names)
	sh := newMatcher(t, Options{Threshold: threshold}, 4)
	for _, n := range names {
		sh.Add(n)
	}
	for _, p := range append(probes, names[:20]...) {
		want := oracleMatches(token.WhitespaceAndPunct(p), strs, threshold, false)
		if got := sh.Query(p); !matchesEqual(want, got) {
			t.Fatalf("query %q: %v, want %v", p, got, want)
		}
	}
	if sh.Len() != len(names) {
		t.Fatalf("Query must not index: Len = %d, want %d", sh.Len(), len(names))
	}
}

// TestShardedAddAllEquivalence checks the batch path assigns dense ids
// after a single Add and returns the oracle's per-element matches.
func TestShardedAddAllEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 44, NumNames: 200})
	sh := newMatcher(t, Options{Threshold: 0.15}, 5)
	_, seeded := sh.Add(names[0])
	first, batch := sh.AddAll(names[1:])
	if first != 1 {
		t.Fatalf("batch first id = %d, want 1", first)
	}
	checkStreams(t, "AddAll", oracleStream(names, 0.15, false), append([][]Match{seeded}, batch...))
	if sh.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", sh.Len(), len(names))
	}
}

// TestShardedEmptyStrings: token-less strings match each other at NSLD 0
// and nothing else.
func TestShardedEmptyStrings(t *testing.T) {
	m := newMatcher(t, Options{Threshold: 0.1}, 3)
	if _, got := m.Add("..."); len(got) != 0 {
		t.Fatal("first empty string matches nothing")
	}
	if _, got := m.Add("---"); len(got) != 1 || got[0].ID != 0 || got[0].NSLD != 0 {
		t.Fatalf("second empty string must match the first: %v", got)
	}
	if got := m.Query("!!"); len(got) != 2 {
		t.Fatalf("empty query must match both empty strings: %v", got)
	}
	if _, got := m.Add("real name"); len(got) != 0 {
		t.Fatal("real name must not match empty strings")
	}
}

// TestShardedOptionValidation: thresholds outside [0, 1) are rejected,
// and shards <= 0 defaults to at least one.
func TestShardedOptionValidation(t *testing.T) {
	for _, bad := range []float64{1.0, -0.1, math.NaN()} {
		if _, err := NewShardedMatcher(Options{Threshold: bad}, 2); err == nil {
			t.Fatalf("threshold %v must be rejected", bad)
		}
	}
	if m := newMatcher(t, Options{Threshold: 0.1}, 0); m.Shards() < 1 {
		t.Fatalf("default shard count = %d", m.Shards())
	}
}

// TestShardedStressRace is the -race stress test of the acceptance
// criteria: >= 8 goroutines doing mixed Add/Query against one matcher.
// Every Add result must be consistent (matches only reference ids below
// the new id), and after the storm every Query must return the oracle's
// matches over the strings in the id order the storm assigned.
func TestShardedStressRace(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 45, NumNames: 400})
	const threshold = 0.15
	m := newMatcher(t, Options{Threshold: threshold}, 4)

	const writers, readers = 4, 6 // 10 goroutines of mixed traffic
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	perWriter := len(names) / writers
	ids := make([][]int, writers) // ids[w][k]: the id of writer w's k-th name
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, n := range names[w*perWriter : (w+1)*perWriter] {
				id, matches := m.Add(n)
				ids[w] = append(ids[w], id)
				for _, mt := range matches {
					if mt.ID >= id {
						errs <- fmt.Errorf("add %d matched later id %d", id, mt.ID)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 200; i++ {
				n := names[rng.Intn(len(names))]
				matches := m.Query(n)
				// Any id a query can discover was fully indexed before the
				// query returned, so it is below the length observed after.
				upper := m.Len()
				for _, mt := range matches {
					if mt.ID >= upper {
						errs <- fmt.Errorf("query matched id %d beyond len %d", mt.ID, upper)
						return
					}
				}
				_ = m.Stats()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := m.Len(); got != perWriter*writers {
		t.Fatalf("Len = %d, want %d", got, perWriter*writers)
	}
	byID := make([]string, perWriter*writers)
	for w := range ids {
		for k, id := range ids[w] {
			byID[id] = names[w*perWriter+k]
		}
	}
	strs := tokenizeAll(byID)
	for i := 0; i < len(names); i += 5 {
		want := oracleMatches(strs[i], strs, threshold, false)
		if got := m.Query(byID[i]); !matchesEqual(want, got) {
			t.Fatalf("post-storm query %q: %v, want %v", byID[i], got, want)
		}
	}
}

// TestTombstoneSweepEquivalence: the amortized tombstone sweep is a pure
// occupancy reclaim. A matcher that sweeps as often as it may returns
// the oracle's matches over the live strings through interleaved
// delete/re-add churn, while actually compacting dead posting entries.
func TestTombstoneSweepEquivalence(t *testing.T) {
	defer func(old int) { sweepMinDeletes = old }(sweepMinDeletes)
	sweepMinDeletes = 1 // sweep every max(1, Len/8) deletes
	names := namegen.Generate(namegen.Config{Seed: 91, NumNames: 160})
	probes := append(namegen.Generate(namegen.Config{Seed: 92, NumNames: 40}), names[:30]...)
	const threshold = 0.2
	m := newMatcher(t, Options{Threshold: threshold}, 3)

	var strs []token.TokenizedString
	var dead []bool
	liveOracle := func(s string) []Match {
		var out []Match
		for _, mt := range oracleMatches(token.WhitespaceAndPunct(s), strs, threshold, false) {
			if !dead[mt.ID] {
				out = append(out, mt)
			}
		}
		return out
	}
	add := func(n string) {
		want := liveOracle(n)
		if id, got := m.Add(n); id != len(strs) || !matchesEqual(want, got) {
			t.Fatalf("add %q: (%d, %v), want (%d, %v)", n, id, got, len(strs), want)
		}
		strs = append(strs, token.WhitespaceAndPunct(n))
		dead = append(dead, false)
	}
	for _, n := range names {
		add(n)
	}
	// Delete-heavy churn: half the corpus dies, then part of it returns
	// under new ids (exercising lazy segment re-indexing of tokens the
	// sweep de-listed).
	for id := 0; id < len(names); id += 2 {
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
		dead[id] = true
	}
	for _, n := range names[:30] {
		add(n)
	}
	for _, p := range probes {
		if want, got := liveOracle(p), m.Query(p); !matchesEqual(want, got) {
			t.Fatalf("query %q: %v, want %v", p, got, want)
		}
	}
	if st := m.Stats(); st.Sweeps == 0 || st.SweptEntries == 0 {
		t.Fatalf("never swept: %d sweeps, %d entries", st.Sweeps, st.SweptEntries)
	}
}
