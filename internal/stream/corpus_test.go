package stream

import (
	"os"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/token"
)

// TestRestartEquivalence is the warm-restart property test of the
// persistence acceptance criteria: kill a corpus-backed sharded matcher
// (gracefully and by crash), reopen the corpus — snapshot + WAL tail
// replay — rebuild the matcher from it, and every Add before and after
// the restart and every Query after it must return the oracle's
// matches. A snapshot is taken mid-stream so the recovery path
// exercises snapshot + WAL tail, not just one of them.
func TestRestartEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 71, NumNames: 220})
	probes := append(namegen.Generate(namegen.Config{Seed: 72, NumNames: 50}), names[:25]...)
	extra := namegen.Generate(namegen.Config{Seed: 73, NumNames: 20})
	const threshold = 0.2
	all := append(append([]string(nil), names...), extra...)
	want := oracleStream(all, threshold, false)
	strs := tokenizeAll(names)

	for _, graceful := range []bool{true, false} {
		dir := t.TempDir()
		pc, err := corpus.Open(dir, corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewShardedFromCorpus(Options{Threshold: threshold}, 4, pc)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			id, got, err := m.AddDurable(n)
			if err != nil {
				t.Fatal(err)
			}
			if id != i || !matchesEqual(want[i], got) {
				t.Fatalf("add %d %q: durable (%d, %v), want %v", i, n, id, got, want[i])
			}
			if i == len(names)/2 {
				if err := pc.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Kill. Graceful closes flush and release; the crash variant
		// abandons the handles (SyncEvery=1 made every record durable).
		m.Close()
		if graceful {
			if err := pc.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			// A real crash releases the flock with the process; the
			// in-process simulation must do it explicitly.
			pc.ReleaseLockForTest()
		}

		// Warm restart: snapshot + WAL replay, index-only rebuild.
		pc2, err := corpus.Open(dir, corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m2, err := NewShardedFromCorpus(Options{Threshold: threshold}, 2, pc2)
		if err != nil {
			t.Fatal(err)
		}
		if m2.Len() != len(names) {
			t.Fatalf("graceful=%v: restarted Len = %d, want %d", graceful, m2.Len(), len(names))
		}
		for _, p := range probes {
			want := oracleMatches(token.WhitespaceAndPunct(p), strs, threshold, false)
			if got := m2.Query(p); !matchesEqual(want, got) {
				t.Fatalf("graceful=%v: query %q: restarted %v, want %v", graceful, p, got, want)
			}
		}
		// The restarted matcher keeps accepting durable writes.
		for i := len(names); i < len(all); i++ {
			id, got, err := m2.AddDurable(all[i])
			if err != nil {
				t.Fatal(err)
			}
			if id != i || !matchesEqual(want[i], got) {
				t.Fatalf("graceful=%v: post-restart add %q: (%d, %v), want %v", graceful, all[i], id, got, want[i])
			}
		}
		m2.Close()
		pc2.Close()
	}
}

// TestRestartEquivalenceTornTail: a crash that tears the last WAL frame
// loses exactly that suffix — the reopened matcher answers like the
// oracle over everything but the torn record.
func TestRestartEquivalenceTornTail(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 74, NumNames: 120})
	const threshold = 0.2

	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewShardedFromCorpus(Options{Threshold: threshold}, 3, pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, _, err := m.AddDurable(n); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	// Crash: no corpus Close (the flock dies with the simulated process);
	// then the tail of the log is torn mid-frame.
	pc.ReleaseLockForTest()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var walFile string
	for _, e := range ents {
		if len(e.Name()) > 4 && e.Name()[:4] == "wal-" {
			walFile = dir + string(os.PathSeparator) + e.Name()
		}
	}
	fi, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walFile, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	pc2, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	m2, err := NewShardedFromCorpus(Options{Threshold: threshold}, 3, pc2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != len(names)-1 {
		t.Fatalf("torn tail: Len = %d, want %d", m2.Len(), len(names)-1)
	}
	strs := tokenizeAll(names[:len(names)-1])
	for i := 0; i < 30; i++ {
		if want, got := oracleMatches(strs[i], strs, threshold, false), m2.Query(names[i]); !matchesEqual(want, got) {
			t.Fatalf("torn tail query %q: %v, want %v", names[i], got, want)
		}
	}
}

// TestCorpusBackedDeletes: tombstoned corpus ids keep their slot in the
// warm-loaded id space but never match, and a token-less live string
// still does.
func TestCorpusBackedDeletes(t *testing.T) {
	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 2, pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"john smith", "jon smith", "...", "ann lee"} {
		if _, _, err := m.AddDurable(n); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	if err := pc.Delete(0); err != nil { // tombstone "john smith"
		t.Fatal(err)
	}
	pc.Close()

	pc2, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	m2, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 2, pc2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (tombstone keeps its slot)", m2.Len())
	}
	got := m2.Query("jon smith")
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("query must match only the live variant: %v", got)
	}
	if got := m2.Query("---"); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("empty query must match the live empty string only: %v", got)
	}
}

// TestLiveDelete: ShardedMatcher.Delete tombstones a string in the live
// index immediately (no restart needed), durably when corpus-backed, and
// the restarted matcher agrees.
func TestLiveDelete(t *testing.T) {
	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 2, pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"john smith", "jon smith", "...", "ann lee"} {
		if _, _, err := m.AddDurable(n); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Query("jon smith"); len(got) != 2 {
		t.Fatalf("pre-delete query: %v", got)
	}
	if err := m.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(0); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := m.Delete(99); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
	if got := m.Query("jon smith"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("live delete not effective: %v", got)
	}
	if err := m.Delete(2); err != nil { // the empty string
		t.Fatal(err)
	}
	if got := m.Query("---"); len(got) != 0 {
		t.Fatalf("deleted empty string still matches: %v", got)
	}
	m.Close()
	pc.Close()

	// The deletes were WAL-durable: a warm restart agrees exactly.
	pc2, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	m2, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 3, pc2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Query("jon smith"); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("restarted delete state differs: %v", got)
	}

	// Detached matchers delete in-memory only, with the same semantics.
	mm, err := NewShardedMatcher(Options{Threshold: 0.2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	mm.Add("john smith")
	mm.Add("jon smith")
	if err := mm.Delete(1); err != nil {
		t.Fatal(err)
	}
	if got := mm.Query("john smith"); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("in-memory delete: %v", got)
	}
}

// TestCorpusAlignmentGuard: writes that bypass the matcher are detected
// instead of silently corrupting the id space.
func TestCorpusAlignmentGuard(t *testing.T) {
	pc, err := corpus.Open(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	m, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 2, pc)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.AddDurable("a name"); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Add("bypassing writer"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AddDurable("another name"); err == nil {
		t.Fatal("desynchronized corpus must fail the durable add")
	}
}

// TestParallelWarmLoadEquivalence: the parallel restart load (probe
// computation chunked across workers, insertion one goroutine per
// shard) must build an index indistinguishable from the serial
// single-pass load — same query answers, same per-shard token balance —
// including with tombstones and empty strings in the corpus, at any
// shard count.
func TestParallelWarmLoadEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 81, NumNames: 240})
	probes := append(namegen.Generate(namegen.Config{Seed: 82, NumNames: 40}), names[:20]...)
	const threshold = 0.2

	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, err := pc.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pc.Add(""); err != nil { // empty string occupies a slot
		t.Fatal(err)
	}
	for _, id := range []int{3, 57, 120, 239} {
		if err := pc.Delete(token.StringID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}

	defer func(old int) { parallelWarmLoadMin = old }(parallelWarmLoadMin)
	for _, shards := range []int{2, 4, 7} {
		// Serial reference load of the same corpus.
		parallelWarmLoadMin = 1 << 30
		pcSerial, err := corpus.Open(dir, corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewShardedFromCorpus(Options{Threshold: threshold}, shards, pcSerial)
		if err != nil {
			t.Fatal(err)
		}
		pcSerial.Close()
		pcSerial.ReleaseLockForTest()

		// Parallel load, forced on despite the small corpus.
		parallelWarmLoadMin = 1
		pcPar, err := corpus.Open(dir, corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewShardedFromCorpus(Options{Threshold: threshold}, shards, pcPar)
		if err != nil {
			t.Fatal(err)
		}

		if par.Len() != serial.Len() {
			t.Fatalf("shards=%d: parallel Len %d != serial %d", shards, par.Len(), serial.Len())
		}
		ss, ps := serial.Stats(), par.Stats()
		for i := range ss.TokensPerShard {
			if ss.TokensPerShard[i] != ps.TokensPerShard[i] {
				t.Fatalf("shards=%d: shard %d token count %d != serial %d",
					shards, i, ps.TokensPerShard[i], ss.TokensPerShard[i])
			}
		}
		for _, p := range probes {
			want := serial.Query(p)
			got := par.Query(p)
			if !matchesEqual(want, got) {
				t.Fatalf("shards=%d: query %q: parallel %v != serial %v", shards, p, got, want)
			}
		}
		// The parallel-loaded matcher keeps serving durable writes.
		if _, _, err := par.AddDurable("fresh after warm load"); err != nil {
			t.Fatal(err)
		}
		serial.Close()
		par.Close()
		pcPar.Close()
	}
}
