package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/namegen"
)

// matchesEqual compares two match slices element-wise (both contracts
// promise id-sorted output).
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedEquivalence is the property test of the satellite checklist:
// identical random corpora fed to the sequential Matcher and to
// ShardedMatchers of several shard counts must produce identical match
// sets at several thresholds, for both the exact and the approximate
// configurations.
func TestShardedEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 41, NumNames: 300})
	for _, cfg := range []Options{
		{Threshold: 0.1},
		{Threshold: 0.2},
		{Threshold: 0.3, MaxTokenFreq: 5},
		{Threshold: 0.15, Greedy: true},
		{Threshold: 0.15, ExactTokensOnly: true},
	} {
		for _, shards := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("T=%v/M=%d/greedy=%v/exact=%v/shards=%d",
				cfg.Threshold, cfg.MaxTokenFreq, cfg.Greedy, cfg.ExactTokensOnly, shards),
				func(t *testing.T) {
					seq, err := NewMatcher(cfg)
					if err != nil {
						t.Fatal(err)
					}
					sh, err := NewShardedMatcher(cfg, shards)
					if err != nil {
						t.Fatal(err)
					}
					defer sh.Close()
					for i, n := range names {
						want := seq.Add(n)
						id, got := sh.Add(n)
						if id != i {
							t.Fatalf("name %d: sharded id = %d", i, id)
						}
						if !matchesEqual(want, got) {
							t.Fatalf("name %d %q: sequential %v != sharded %v", i, n, want, got)
						}
					}
					if sh.Len() != seq.Len() {
						t.Fatalf("Len: sharded %d != sequential %d", sh.Len(), seq.Len())
					}
				})
		}
	}
}

// TestShardedQueryMatchesSequential checks the read-only path against the
// sequential matcher on a built index.
func TestShardedQueryMatchesSequential(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 42, NumNames: 250})
	probes := namegen.Generate(namegen.Config{Seed: 43, NumNames: 60})
	const threshold = 0.2
	seq, _ := NewMatcher(Options{Threshold: threshold})
	sh, _ := NewShardedMatcher(Options{Threshold: threshold}, 4)
	defer sh.Close()
	for _, n := range names {
		seq.Add(n)
		sh.Add(n)
	}
	for _, p := range append(probes, names[:20]...) {
		want := seq.Query(p)
		got := sh.Query(p)
		if !matchesEqual(want, got) {
			t.Fatalf("query %q: sequential %v != sharded %v", p, want, got)
		}
	}
	if sh.Len() != len(names) {
		t.Fatalf("Query must not index: Len = %d, want %d", sh.Len(), len(names))
	}
}

// TestShardedAddAllEquivalence checks the batch path assigns dense ids and
// reproduces the serial match stream.
func TestShardedAddAllEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 44, NumNames: 200})
	seq, _ := NewMatcher(Options{Threshold: 0.15})
	sh, _ := NewShardedMatcher(Options{Threshold: 0.15}, 5)
	defer sh.Close()
	_, seeded := sh.Add(names[0])
	if len(seeded) != 0 {
		t.Fatalf("first add matched: %v", seeded)
	}
	seq.Add(names[0])
	first, batch := sh.AddAll(names[1:])
	if first != 1 {
		t.Fatalf("batch first id = %d, want 1", first)
	}
	for i, n := range names[1:] {
		want := seq.Add(n)
		if !matchesEqual(want, batch[i]) {
			t.Fatalf("batch element %d %q: %v != %v", i, n, batch[i], want)
		}
	}
	if sh.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", sh.Len(), len(names))
	}
}

// TestShardedEmptyStrings mirrors the sequential empty-string semantics.
func TestShardedEmptyStrings(t *testing.T) {
	m, _ := NewShardedMatcher(Options{Threshold: 0.1}, 3)
	defer m.Close()
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

// TestShardedOptionValidation mirrors the sequential validation.
func TestShardedOptionValidation(t *testing.T) {
	for _, bad := range []float64{1.0, math.NaN()} {
		if _, err := NewShardedMatcher(Options{Threshold: bad}, 2); err == nil {
			t.Fatalf("threshold %v must be rejected", bad)
		}
	}
	m, err := NewShardedMatcher(Options{Threshold: 0.1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Shards() < 1 {
		t.Fatalf("default shard count = %d", m.Shards())
	}
}

// TestShardedStressRace is the -race stress test of the acceptance
// criteria: >= 8 goroutines doing mixed Add/Query against one matcher.
// Every Add result must be consistent: matches only reference ids below
// the new id, and the matcher ends with exactly the added strings.
func TestShardedStressRace(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 45, NumNames: 400})
	m, err := NewShardedMatcher(Options{Threshold: 0.15}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const writers, readers = 4, 6 // 10 goroutines of mixed traffic
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	perWriter := len(names) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, n := range names[w*perWriter : (w+1)*perWriter] {
				id, matches := m.Add(n)
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
	// After the storm the index must still agree with a sequential rebuild.
	seq, _ := NewMatcher(Options{Threshold: 0.15})
	for _, n := range names[:perWriter*writers] {
		seq.Add(n)
	}
	probe := names[7]
	want := seq.Query(probe)
	got := m.Query(probe)
	if len(want) != len(got) {
		t.Fatalf("post-stress query: %d matches, sequential %d", len(got), len(want))
	}
}

// TestTombstoneSweepEquivalence: the amortized tombstone sweep is a
// pure occupancy reclaim — a matcher that sweeps aggressively must
// return byte-identical Add and Query results to one that never sweeps,
// through interleaved delete/re-add churn, while actually compacting
// dead posting entries.
func TestTombstoneSweepEquivalence(t *testing.T) {
	defer func(old int) { sweepMinDeletes = old }(sweepMinDeletes)
	names := namegen.Generate(namegen.Config{Seed: 91, NumNames: 160})
	probes := append(namegen.Generate(namegen.Config{Seed: 92, NumNames: 40}), names[:30]...)

	newMatcher := func(shards int) *ShardedMatcher {
		m, err := NewShardedMatcher(Options{Threshold: 0.2}, shards)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m
	}
	control := newMatcher(3)
	swept := newMatcher(3)

	// sweepMinDeletes is consulted at Delete time, so route every
	// operation through helpers that pin the control to never-sweep and
	// the subject to max(1, n/8)-delete sweeps.
	asControl := func(f func() error) error { sweepMinDeletes = 1 << 30; return f() }
	asSwept := func(f func() error) error { sweepMinDeletes = 1; return f() }

	step := func(op string, f func(m *ShardedMatcher) (int, []Match)) {
		wantID, want := f(control)
		gotID, got := f(swept)
		if gotID != wantID || !matchesEqual(want, got) {
			t.Fatalf("%s: swept (%d, %v) != control (%d, %v)", op, gotID, got, wantID, want)
		}
	}
	for _, n := range names {
		n := n
		step("add "+n, func(m *ShardedMatcher) (int, []Match) { return m.Add(n) })
	}
	// Delete-heavy churn: half the corpus dies, then part of it returns
	// under new ids (exercising lazy segment re-indexing of tokens the
	// sweep de-listed).
	for id := 0; id < len(names); id += 2 {
		if err := asControl(func() error { return control.Delete(id) }); err != nil {
			t.Fatal(err)
		}
		if err := asSwept(func() error { return swept.Delete(id) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names[:30] {
		n := n
		step("re-add "+n, func(m *ShardedMatcher) (int, []Match) { return m.Add(n) })
	}
	for _, p := range probes {
		if want, got := control.Query(p), swept.Query(p); !matchesEqual(want, got) {
			t.Fatalf("query %q: swept %v != control %v", p, got, want)
		}
	}

	cs, ss := control.Stats(), swept.Stats()
	if cs.Sweeps != 0 {
		t.Fatalf("control swept %d times, want 0", cs.Sweeps)
	}
	if ss.Sweeps == 0 || ss.SweptEntries == 0 {
		t.Fatalf("subject never swept: %d sweeps, %d entries", ss.Sweeps, ss.SweptEntries)
	}
}
