package stream

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/nsldtest"
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

// TestAttachedCorpusRefusesDirectWrites: while a matcher is attached,
// every direct write to its corpus fails with corpus.ErrAttached and
// changes nothing, and the matcher's own writes go on. After a panic in
// the matcher's part of a commit the corpus still installs every record
// it logged, and the matcher, whose index now lags its token space,
// refuses writes. Closing the matcher hands the write path back.
func TestAttachedCorpusRefusesDirectWrites(t *testing.T) {
	pc, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Add("john smith"); err != nil {
		t.Fatal(err)
	}
	m, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 2, pc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AddDurable("jane doe"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 1, pc); !errors.Is(err, corpus.ErrAttached) {
		t.Fatalf("a second attach: %v, want ErrAttached", err)
	}
	refused := func(what string) {
		t.Helper()
		lsn, n := pc.LSN(), pc.Len()
		for name, write := range map[string]func() error{
			"Add":               func() error { _, err := pc.Add("jon smith"); return err },
			"AddTokenizedBatch": func() error { _, err := pc.AddTokenizedBatch(tokenizeAll([]string{"a b", "c"})); return err },
			"Delete":            func() error { return pc.Delete(0) },
			"ApplyShipped":      func() error { _, err := pc.ApplyShipped(nil); return err },
		} {
			if err := write(); !errors.Is(err, corpus.ErrAttached) {
				t.Fatalf("%s: direct %s = %v, want ErrAttached", what, name, err)
			}
		}
		if pc.LSN() != lsn || pc.Len() != n {
			t.Fatalf("%s: refused writes moved the corpus: LSN %d → %d, Len %d → %d", what, lsn, pc.LSN(), n, pc.Len())
		}
	}
	refused("attached")
	if id, got, err := m.AddDurable("jon smith"); err != nil || id != 2 || len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("the matcher's add after refused writes: %d, %v, %v", id, got, err)
	}
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}

	// A panic in the matcher's part of a commit, after it installed one
	// of three logged records.
	lsn := pc.LSN()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the apply did not panic")
			}
		}()
		recs := []corpus.Record{{TS: token.New([]string{"x", "y"})}, {TS: token.New([]string{"y", "z"})}, {TS: token.New([]string{"x", "z"})}}
		m.att.Commit(recs, func(_ []corpus.Record, install func(int, func())) {
			install(1, nil)
			panic("apply failed")
		})
	}()
	if pc.LSN() != lsn+3 || pc.Len() != 6 {
		t.Fatalf("after the panic LSN %d, Len %d; want %d, 6: every logged record installed", pc.LSN(), pc.Len(), lsn+3)
	}
	lsn = pc.LSN()
	if _, _, err := m.AddDurable("ann lee"); err == nil {
		t.Fatal("a matcher whose index lags its token space took an add")
	}
	if err := m.Delete(0); err == nil {
		t.Fatal("a matcher whose index lags its token space took a delete")
	}
	if pc.LSN() != lsn {
		t.Fatalf("refused matcher writes moved the LSN %d → %d", lsn, pc.LSN())
	}
	refused("lagging")
	if got := m.Query("jon smith"); len(got) != 2 || got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("a lagging matcher still serves its index: %v", got)
	}

	m.Close()
	if _, err := pc.Add("ann lee"); err != nil {
		t.Fatalf("a direct write after Close: %v", err)
	}
}

// TestAttachedMatcherSharesTokenSpace: an attached matcher, on a writer
// and on a standby fed shipped batches, reads its corpus's own token
// space — the same string, member and token tables, not a copy — and
// every string is interned once: the token space holds one string per id.
// Corpus readers, probe views among them, and queries run beside the
// writes to the shared token space.
func TestAttachedMatcherSharesTokenSpace(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 91, NumNames: 120})
	open := func(pre []string) (*ShardedMatcher, *corpus.Corpus) {
		pc, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		for _, n := range pre {
			if _, err := pc.Add(n); err != nil {
				t.Fatal(err)
			}
		}
		m, err := NewShardedFromCorpus(Options{Threshold: 0.2}, 2, pc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		return m, pc
	}
	shared := func(who string, m *ShardedMatcher, pc *corpus.Corpus) {
		t.Helper()
		v := pc.View()
		m.mu.RLock()
		defer m.mu.RUnlock()
		if &m.tc.Strings[0] != &v.TC.Strings[0] || &m.tc.Members[0] != &v.TC.Members[0] || &m.tc.Tokens[0] != &v.TC.Tokens[0] {
			t.Fatalf("%s: the matcher's tables are not its corpus's", who)
		}
		if len(m.tc.Strings) != pc.Len() || len(m.dead) != pc.Len() || !slices.Equal(m.tc.Freq, v.TC.Freq) {
			t.Fatalf("%s: %d strings and %d indexed over a corpus of %d", who, len(m.tc.Strings), len(m.dead), pc.Len())
		}
	}
	w, wpc := open(names[:40]) // warm-loaded, then written
	sb, sbpc := open(nil)
	shared("warm load", w, wpc)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := r; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				probe := token.WhitespaceAndPunct(names[k%len(names)] + " zz")
				if v := wpc.View(probe); v.TC.NumStrings() != len(v.Alive) {
					t.Errorf("a probe view holds %d strings and %d alive flags", v.TC.NumStrings(), len(v.Alive))
				}
				_, _, _ = wpc.Stats(), wpc.LSN(), w.Query(names[k%len(names)])
			}
		}()
	}
	for i, n := range names[40:] {
		if _, _, err := w.AddDurable(n); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := w.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
	shared("writer", w, wpc)
	for sbpc.LSN() < wpc.LSN() {
		batch, err := wpc.ShipFrom(sbpc.LSN(), 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sb.ApplyShipped(batch...); err != nil {
			t.Fatal(err)
		}
	}
	shared("standby", sb, sbpc)
	for _, n := range names[:30] {
		if got, want := sb.Query(n), w.Query(n); !matchesEqual(got, want) {
			t.Fatalf("standby query %q = %v, writer %v", n, got, want)
		}
	}
}

// TestRestartEquivalenceWarmLoad: the warm load (probe computation
// chunked across workers, insertion one goroutine per shard) serves the
// oracle's queries over the corpus's live strings at any shard count,
// with tombstones and an empty string in the corpus, and keeps serving
// durable writes. An empty corpus — every fresh data directory — loads
// and then takes writes too.
func TestRestartEquivalenceWarmLoad(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 81, NumNames: 240})
	probes := append(namegen.Generate(namegen.Config{Seed: 82, NumNames: 40}), names[:20]...)
	probes = append(probes, "!!")
	const threshold = 0.2
	deleted := []int{3, 57, 120, 239}

	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]string(nil), names...), "") // the empty string occupies a slot
	for _, n := range all {
		if _, err := pc.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range deleted {
		if err := pc.Delete(token.StringID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}

	strs := tokenizeAll(all)
	dead := make([]bool, len(all))
	for _, id := range deleted {
		dead[id] = true
	}

	for _, shards := range []int{1, 2, 4, 7} {
		pc, err := corpus.Open(dir, corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewShardedFromCorpus(Options{Threshold: threshold}, shards, pc)
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != len(strs) {
			t.Fatalf("shards=%d: Len %d, want %d", shards, m.Len(), len(strs))
		}
		for _, p := range probes {
			var want []Match
			for _, mt := range oracleMatches(token.WhitespaceAndPunct(p), strs, threshold, false) {
				if !dead[mt.ID] {
					want = append(want, mt)
				}
			}
			if got := m.Query(p); !matchesEqual(want, got) {
				t.Fatalf("shards=%d: query %q: %v, want %v", shards, p, got, want)
			}
		}
		// The warm-loaded matcher keeps serving durable writes; the next
		// round loads this one's write too.
		fresh := "fresh after warm load " + string(rune('a'+shards))
		if id, _, err := m.AddDurable(fresh); err != nil || id != len(strs) {
			t.Fatalf("shards=%d: durable add after warm load: id %d, err %v", shards, id, err)
		}
		strs = append(strs, token.WhitespaceAndPunct(fresh))
		dead = append(dead, false)
		m.Close()
		pc.Close()
	}

	empty, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	m, err := NewShardedFromCorpus(Options{Threshold: threshold}, 2, empty)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if id, got, err := m.AddDurable(names[0]); err != nil || id != 0 || len(got) != 0 {
		t.Fatalf("empty corpus: first durable add (%d, %v, %v)", id, got, err)
	}
	if got := m.Query(names[0]); len(got) != 1 || got[0].ID != 0 {
		t.Fatalf("empty corpus: query after the first add: %v", got)
	}
}

// TestRestartEquivalenceDeletes: a matcher answers by one frequency rule
// however it was built. One seeded Add/Delete/Query script runs at
// M ∈ {0, 1, 2} on 1 and 3 shards through five builds: an in-memory
// matcher; one attached to a durable corpus; one attached and restarted
// at the script's midpoint; a standby fed the primary's ShipFrom batches
// (applied before each query, so a batch mixes adds, deletes and deletes
// of its own adds, and held back over the script's second eighth to
// midpoint, so one batch is long enough for index to fan out); and a
// standby installed from the primary's SnapshotBytes at the midpoint,
// then fed before each query. Every answer —
// a writer's Add and Query, a standby's Query — must equal
// nsldtest.Cutoff.Matches over the strings live before the op
// (cutoffModel), and after every op an attached matcher's frequencies
// must equal its corpus's. Tombstone sweeps run every few deletes.
func TestRestartEquivalenceDeletes(t *testing.T) {
	defer func(old int) { sweepMinDeletes = old }(sweepMinDeletes)
	sweepMinDeletes = 4
	names := namegen.Generate(namegen.Config{Seed: 66, NumNames: 200})
	names[11], names[90] = "...", "--"
	ops := deleteScript(names, 67)
	const th = 0.2
	for _, maxFreq := range []int{0, 1, 2} {
		// want[i] is the model's answer to op i, an add or a query.
		md := &cutoffModel{o: nsldtest.Cutoff{T: th, M: maxFreq}}
		want := make([][]Match, len(ops))
		for i, op := range ops {
			ts := token.WhitespaceAndPunct(op.name)
			switch op.kind {
			case 'a':
				want[i] = md.matches(ts)
				md.add(ts)
			case 'd':
				md.dead[op.id] = true
			case 'q':
				want[i] = md.matches(ts)
			}
		}
		for _, shards := range []int{1, 3} {
			for _, build := range []string{"memory", "durable", "restarted", "shipped", "installed"} {
				t.Run(fmt.Sprintf("M=%d/shards=%d/%s", maxFreq, shards, build), func(t *testing.T) {
					replayDeletes(t, build, Options{Threshold: th, MaxTokenFreq: maxFreq}, shards, ops, want)
				})
			}
		}
	}
}

// replayDeletes runs ops through one build of TestRestartEquivalenceDeletes
// and checks every answer against want.
func replayDeletes(t *testing.T, build string, opt Options, shards int, ops []scriptOp, want [][]Match) {
	open := func(dir string) (*ShardedMatcher, *corpus.Corpus) {
		pc, err := corpus.Open(dir, corpus.Options{DisableSync: true})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewShardedFromCorpus(opt, shards, pc)
		if err != nil {
			t.Fatal(err)
		}
		return m, pc
	}
	closeBoth := func(m *ShardedMatcher, pc *corpus.Corpus) {
		m.Close()
		if err := pc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	checkFreq := func(what string, i int, m *ShardedMatcher, pc *corpus.Corpus) {
		m.mu.RLock()
		got := slices.Clone(m.tc.Freq)
		m.mu.RUnlock()
		if want := pc.View().TC.Freq; !slices.Equal(got, want) {
			t.Fatalf("op %d: %s frequencies %v, corpus %v", i, what, got, want)
		}
	}
	// w takes the writes and answers them; sb, when set, is a standby of w
	// that answers the queries.
	var w, sb *ShardedMatcher
	var wpc, sbpc *corpus.Corpus
	wdir, sbdir := t.TempDir(), t.TempDir()
	if build == "memory" {
		w = newMatcher(t, opt, shards)
	} else {
		w, wpc = open(wdir)
	}
	if build == "shipped" {
		sb, sbpc = open(sbdir)
	}
	defer func() {
		if wpc != nil {
			closeBoth(w, wpc)
		}
		if sb != nil {
			closeBoth(sb, sbpc)
		}
	}()
	catchUp := func(i int) {
		for {
			batch, err := wpc.ShipFrom(sbpc.LSN(), 0, 0)
			if err != nil {
				t.Fatalf("op %d: ShipFrom: %v", i, err)
			}
			if len(batch) == 0 {
				return
			}
			if err := sb.ApplyShipped(batch...); err != nil {
				t.Fatalf("op %d: ApplyShipped: %v", i, err)
			}
			checkFreq("standby", i, sb, sbpc)
		}
	}
	for i, op := range ops {
		if i == len(ops)/2 {
			switch build {
			case "restarted":
				closeBoth(w, wpc)
				w, wpc = open(wdir)
			case "installed":
				raw, _ := wpc.SnapshotBytes()
				snap, err := corpus.CheckSnapshot(raw)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := corpus.Install(sbdir, snap, corpus.Options{DisableSync: true}); err != nil {
					t.Fatal(err)
				}
				sb, sbpc = open(sbdir)
				checkFreq("installed standby", i, sb, sbpc)
			}
		}
		switch op.kind {
		case 'a':
			if id, got := w.Add(op.name); id < 0 || !matchesEqual(want[i], got) {
				t.Fatalf("op %d: Add %q = %d, %v; want %v", i, op.name, id, got, want[i])
			}
		case 'd':
			if err := w.Delete(op.id); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		case 'q':
			q, who := w, "writer"
			lagging := build == "shipped" && i >= len(ops)/8 && i < len(ops)/2
			if sb != nil && !lagging {
				catchUp(i)
				q, who = sb, "standby"
			}
			if got := q.Query(op.name); !matchesEqual(want[i], got) {
				t.Fatalf("op %d: %s Query %q = %v; want %v", i, who, op.name, got, want[i])
			}
		}
		if wpc != nil {
			checkFreq("writer", i, w, wpc)
		}
	}
	if st := w.Stats(); st.Sweeps == 0 {
		t.Fatal("no tombstone sweep ran")
	}
}
