// Torture harness for the durability layer: a scripted
// add/delete/batch/snapshot/compact workload runs with a fault injected
// at every filesystem-operation index in turn — an I/O error, a torn
// (short) write on a full disk, and a simulated power cut — and after
// each faulted run the corpus is reopened and checked against a model
// of exactly the acknowledged mutations.
//
// The sweep leans on a determinism property: operations before the
// fault index are identical to the fault-free reference run (the
// injector is the only source of divergence), so counting the
// reference run's ops gives the exact sweep bound and every index is
// guaranteed to be reached.
//
// Invariants asserted after every reopen:
//
//   - every acknowledged mutation survives, with unshifted ids;
//   - nothing rolled back resurrects (for the errno/short-write
//     flavors the reopened state must equal the model exactly);
//   - a crash may additionally persist at most the one in-flight,
//     unacknowledged operation (a WAL frame written but whose fsync —
//     and therefore whose rollback — died with the process), and
//     nothing else;
//   - the reopened corpus is healthy: not degraded, and its write path
//     accepts a probe append;
//   - join results replay equivalently: a corpus rebuilt from the model
//     joins identically to the reopened one.
//
// This file is an external test package so it can import internal/tsj
// (which itself imports corpus) for the join-equivalence check.
package corpus_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"

	"repro/internal/corpus"
	"repro/internal/iofault"
	"repro/internal/namegen"
	"repro/internal/token"
	"repro/internal/tsj"
)

// opStep is one scripted workload operation.
type opStep struct {
	kind  byte // 'a' add, 'b' batch add, 'd' delete, 's' snapshot, 'c' compact
	name  string
	batch []string
	sid   int
}

func buildScript(names []string) []opStep {
	var s []opStep
	for i := 0; i < 8; i++ {
		s = append(s, opStep{kind: 'a', name: names[i]})
	}
	s = append(s,
		opStep{kind: 'd', sid: 2},
		opStep{kind: 'd', sid: 5},
		opStep{kind: 's'},
		opStep{kind: 'b', batch: names[8:12]},
		opStep{kind: 'd', sid: 7},
		opStep{kind: 'c'},
	)
	for i := 12; i < 15; i++ {
		s = append(s, opStep{kind: 'a', name: names[i]})
	}
	s = append(s, opStep{kind: 'd', sid: 0}, opStep{kind: 's'})
	for i := 15; i < 18; i++ {
		s = append(s, opStep{kind: 'a', name: names[i]})
	}
	return s
}

// model tracks the acknowledged logical state: strs[sid] is the
// tokenized content (tokens joined by NUL), alive the tombstone mask.
// Content is retained for tombstones so a reference corpus can rebuild
// the identical id space.
type model struct {
	strs  []string
	alive []bool
}

func normalize(name string) string {
	return strings.Join(token.WhitespaceAndPunct(name).Tokens, "\x00")
}

func (m *model) add(name string) {
	m.strs = append(m.strs, normalize(name))
	m.alive = append(m.alive, true)
}

func (m *model) clone() *model {
	return &model{
		strs:  append([]string(nil), m.strs...),
		alive: append([]bool(nil), m.alive...),
	}
}

func (m *model) liveCount() int {
	n := 0
	for _, a := range m.alive {
		if a {
			n++
		}
	}
	return n
}

// logical extracts the comparable logical state of an opened corpus.
func logical(c *corpus.Corpus) *model {
	v := c.View()
	n := v.TC.NumStrings()
	m := &model{strs: make([]string, n), alive: make([]bool, n)}
	for i := 0; i < n; i++ {
		m.alive[i] = v.Alive[i]
		if v.Alive[i] {
			m.strs[i] = strings.Join(v.TC.Strings[i].Tokens, "\x00")
		}
	}
	return m
}

// stateEqual compares id space, tombstone mask, and live content.
func stateEqual(a, b *model) bool {
	if len(a.strs) != len(b.strs) {
		return false
	}
	for i := range a.strs {
		if a.alive[i] != b.alive[i] {
			return false
		}
		if a.alive[i] && a.strs[i] != b.strs[i] {
			return false
		}
	}
	return true
}

// runWorkload drives the script against c, applying each step to the
// model only when the corpus acknowledged it, and returns the index of
// the first failed step (-1 if none). Acknowledged ids must equal the
// model's next id — an in-process id shift is a harness-stopping bug.
func runWorkload(t *testing.T, c *corpus.Corpus, steps []opStep, m *model) int {
	t.Helper()
	firstFail := -1
	for si, st := range steps {
		var err error
		switch st.kind {
		case 'a':
			var id token.StringID
			id, err = c.Add(st.name)
			if err == nil {
				if int(id) != len(m.strs) {
					t.Fatalf("step %d: acknowledged id %d, model expects %d", si, id, len(m.strs))
				}
				m.add(st.name)
			}
		case 'b':
			tss := make([]token.TokenizedString, len(st.batch))
			for i, s := range st.batch {
				tss[i] = c.Tokenizer()(s)
			}
			var first token.StringID
			first, err = c.AddTokenizedBatch(tss)
			if err == nil {
				if int(first) != len(m.strs) {
					t.Fatalf("step %d: acknowledged batch base %d, model expects %d", si, first, len(m.strs))
				}
				for _, s := range st.batch {
					m.add(s)
				}
			}
		case 'd':
			err = c.Delete(token.StringID(st.sid))
			if err == nil {
				m.alive[st.sid] = false
			}
		case 's':
			err = c.Snapshot()
		case 'c':
			err = c.Compact()
		}
		if err != nil && firstFail == -1 {
			firstFail = si
		}
	}
	return firstFail
}

// crashCandidates enumerates the states a crash is allowed to leave
// behind: the acknowledged model, plus the model with (a prefix of) the
// one in-flight operation applied — a WAL frame can be fully written
// and then the fsync, and with it the rollback, dies with the process.
func crashCandidates(m *model, steps []opStep, firstFail int) []*model {
	out := []*model{m}
	if firstFail < 0 {
		return out
	}
	switch st := steps[firstFail]; st.kind {
	case 'a':
		alt := m.clone()
		alt.add(st.name)
		out = append(out, alt)
	case 'b':
		for j := 1; j <= len(st.batch); j++ {
			alt := m.clone()
			for _, nm := range st.batch[:j] {
				alt.add(nm)
			}
			out = append(out, alt)
		}
	case 'd':
		if st.sid < len(m.alive) && m.alive[st.sid] {
			alt := m.clone()
			alt.alive[st.sid] = false
			out = append(out, alt)
		}
	}
	return out
}

// joinPairs runs the corpus self-join and renders the result pairs in a
// canonical order.
func joinPairs(t *testing.T, c *corpus.Corpus) []string {
	t.Helper()
	opts := tsj.DefaultOptions()
	opts.Threshold = 0.25
	res, _, err := tsj.SelfJoinCorpus(c, opts)
	if err != nil {
		t.Fatalf("SelfJoinCorpus: %v", err)
	}
	ps := make([]string, len(res))
	for i, r := range res {
		ps[i] = fmt.Sprintf("%d-%d-%d", r.A, r.B, r.SLD)
	}
	sort.Strings(ps)
	return ps
}

// buildReference reconstructs a fresh corpus whose logical state is
// exactly the model (same id space, same tombstones).
func buildReference(t *testing.T, m *model) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatalf("open reference: %v", err)
	}
	for i, s := range m.strs {
		id, err := c.AddTokenizedBatch([]token.TokenizedString{token.New(strings.Split(s, "\x00"))})
		if err != nil || int(id) != i {
			t.Fatalf("reference add %d: id=%d err=%v", i, id, err)
		}
	}
	for i, alive := range m.alive {
		if !alive {
			if err := c.Delete(token.StringID(i)); err != nil {
				t.Fatalf("reference delete %d: %v", i, err)
			}
		}
	}
	return c
}

// tortureFlavor is one fault shape swept across every op index.
type tortureFlavor struct {
	name  string
	crash bool
	plan  func(i int64) iofault.Plan
}

var tortureFlavors = []tortureFlavor{
	{"eio", false, func(i int64) iofault.Plan {
		return iofault.Plan{FailAt: i}
	}},
	{"enospc-short-write", false, func(i int64) iofault.Plan {
		return iofault.Plan{FailAt: i, Err: syscall.ENOSPC, ShortWrite: 3}
	}},
	{"crash", true, func(i int64) iofault.Plan {
		return iofault.Plan{FailAt: i, Crash: true}
	}},
}

func TestTortureOpSweep(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 21, NumNames: 18})
	steps := buildScript(names)

	// Fault-free reference run: counts the op stream (the sweep bound)
	// and validates the model tracking itself round-trips.
	refDir := t.TempDir()
	counter := iofault.NewInjector(iofault.OS, iofault.Disarmed())
	c, err := corpus.Open(refDir, corpus.Options{FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	ref := &model{}
	if ff := runWorkload(t, c, steps, ref); ff != -1 {
		t.Fatalf("fault-free run failed at step %d", ff)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	total := counter.Ops()
	if total < 20 {
		t.Fatalf("suspiciously few ops in reference run: %d", total)
	}
	c2, err := corpus.Open(refDir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := logical(c2); !stateEqual(got, ref) {
		t.Fatalf("fault-free reopen diverges from model: got %d strings (%d live), want %d (%d live)",
			len(got.strs), got.liveCount(), len(ref.strs), ref.liveCount())
	}
	refPairs := joinPairs(t, c2)
	if len(refPairs) == 0 {
		t.Fatal("reference workload joins to zero pairs; the equivalence check would be vacuous")
	}
	c2.Close()

	stride := int64(1)
	if testing.Short() {
		stride = 4
	}
	for _, fl := range tortureFlavors {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			for i := int64(0); i < total; i += stride {
				tortureOne(t, steps, fl, i)
			}
		})
	}
}

// tortureOne runs the workload with one fault at op index i, reopens,
// and asserts the invariants.
func tortureOne(t *testing.T, steps []opStep, fl tortureFlavor, i int64) {
	t.Helper()
	dir := t.TempDir()
	inj := iofault.NewInjector(iofault.OS, fl.plan(i))
	m := &model{}
	firstFail := -1
	c, err := corpus.Open(dir, corpus.Options{FS: inj})
	if err == nil {
		firstFail = runWorkload(t, c, steps, m)
		c.Close() // may fail under the injected fault; artifacts are the point
	}
	if inj.Faults() != 1 {
		t.Errorf("[%s@%d] fault fired %d times, want exactly 1 (ops seen: %d)",
			fl.name, i, inj.Faults(), inj.Ops())
		return
	}

	// Reopen over the real filesystem: the next process after the fault.
	c2, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Errorf("[%s@%d] reopen after fault failed: %v", fl.name, i, err)
		return
	}
	defer c2.Close()

	got := logical(c2)
	cands := []*model{m}
	if fl.crash {
		cands = crashCandidates(m, steps, firstFail)
	}
	var match *model
	for _, cand := range cands {
		if stateEqual(got, cand) {
			match = cand
			break
		}
	}
	if match == nil {
		t.Errorf("[%s@%d] reopened state matches none of %d allowed states: got %d strings (%d live), acked model has %d (%d live); first failed step %d",
			fl.name, i, len(cands), len(got.strs), got.liveCount(), len(m.strs), m.liveCount(), firstFail)
		return
	}
	if derr := c2.Degraded(); derr != nil {
		t.Errorf("[%s@%d] reopened corpus is degraded: %v", fl.name, i, derr)
	}

	// Join replay-equivalence on a diagonal of the sweep (it dominates
	// the runtime): a corpus rebuilt from the matched state must join
	// identically to the reopened one.
	if i%7 == 0 && match.liveCount() > 1 {
		refC := buildReference(t, match)
		want := joinPairs(t, refC)
		refC.Close()
		gotPairs := joinPairs(t, c2)
		if strings.Join(gotPairs, " ") != strings.Join(want, " ") {
			t.Errorf("[%s@%d] join results diverge after reopen: got %v, want %v",
				fl.name, i, gotPairs, want)
		}
	}

	// The write path must be fully healthy after recovery.
	if id, err := c2.Add("post fault probe"); err != nil {
		t.Errorf("[%s@%d] probe append after reopen failed: %v", fl.name, i, err)
	} else if int(id) != len(match.strs) {
		t.Errorf("[%s@%d] probe append got id %d, want %d (id space shifted)",
			fl.name, i, id, len(match.strs))
	}
}

// TestDegradedSealAndRecover exercises the fsyncgate contract end to
// end at the corpus level: a failed WAL fsync seals the generation,
// mutations fail fast with ErrDegraded without touching the sealed fd,
// reads keep serving, and Recover heals by rotating to a fresh
// generation — after which the id space continues unshifted and a
// restart sees every acknowledged record.
func TestDegradedSealAndRecover(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 22, NumNames: 5})
	dir := t.TempDir()
	inj := iofault.NewInjector(iofault.OS, iofault.Disarmed())
	c, err := corpus.Open(dir, corpus.Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Add(names[i]); err != nil {
			t.Fatal(err)
		}
	}

	inj.SetPlan(iofault.Plan{FailAt: 0, Only: iofault.OpSync})
	if _, err := c.Add(names[3]); !errors.Is(err, corpus.ErrDegraded) {
		t.Fatalf("add through failing fsync: err = %v, want ErrDegraded", err)
	}
	if c.Degraded() == nil {
		t.Fatal("Degraded() = nil after fsync failure")
	}
	if !c.Stats().Degraded {
		t.Fatal("Stats().Degraded = false after fsync failure")
	}
	faultsAfterSeal := inj.Faults()
	if _, err := c.Add(names[4]); !errors.Is(err, corpus.ErrDegraded) {
		t.Fatalf("add on sealed corpus: err = %v, want ErrDegraded", err)
	}
	if inj.Faults() != faultsAfterSeal || inj.Crashed() {
		t.Fatal("sealed corpus touched the filesystem on a failed-fast add")
	}
	if v := c.View(); v.Live != 3 {
		t.Fatalf("degraded read path: Live = %d, want 3", v.Live)
	}

	// The one-shot plan is exhausted; Recover rotates to a fresh
	// generation through new descriptors and clears the seal.
	if err := c.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := c.Degraded(); err != nil {
		t.Fatalf("Degraded() = %v after successful Recover", err)
	}
	id, err := c.Add(names[3])
	if err != nil {
		t.Fatalf("add after recovery: %v", err)
	}
	if id != 3 {
		t.Fatalf("post-recovery id = %d, want 3 (the rolled-back add must not occupy an id)", id)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Live() != 4 || c2.Len() != 4 {
		t.Fatalf("after restart: live=%d len=%d, want 4/4", c2.Live(), c2.Len())
	}
}

// TestBitRotMidChainFailsLoudly: damage that replay cannot prove is a
// crash artifact — a corrupt frame in a non-final WAL generation, with
// the covering snapshot also rotted — must fail Open loudly rather
// than silently replaying a shifted id space.
func TestBitRotMidChainFailsLoudly(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 23, NumNames: 8})
	dir := t.TempDir()
	c, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Add(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Snapshot(); err != nil { // folds wal-0 into snap-1, opens wal-1
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if _, err := c.Add(names[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Rot the snapshot (CRC will reject it, forcing the fallback to the
	// full WAL chain) and a byte inside wal-0's first frame (mid-chain
	// damage: wal-1 exists after it).
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(name string, off int64) {
		path := dir + string(os.PathSeparator) + name
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 {
			off += int64(len(raw))
		}
		raw[off] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".tsj"):
			flip(e.Name(), -10)
		case strings.Contains(e.Name(), "wal-") && strings.Contains(e.Name(), "0000000000000000"):
			flip(e.Name(), 12) // inside the first frame
		}
	}

	if _, err := corpus.Open(dir, corpus.Options{}); err == nil {
		t.Fatal("Open succeeded over mid-chain bit rot; acknowledged records were silently dropped")
	}
}

// TestTortureInstallOpSweep fails every filesystem operation of a
// snapshot install in turn — an I/O error and a simulated power cut —
// into an empty directory and into one holding an older state of
// several generations, then reopens the directory. It must open as the
// state it held before the install or as exactly the installed state,
// never a mix; a successful install must have installed; and the
// reopened corpus must accept a write at the next id.
func TestTortureInstallOpSweep(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 23, NumNames: 18})
	src, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	installed := &model{}
	if ff := runWorkload(t, src, buildScript(names), installed); ff != -1 {
		t.Fatalf("source workload failed at step %d", ff)
	}
	raw, lsn := src.SnapshotBytes()

	// The older state: a few adds, a delete, two snapshots and a compact,
	// so the directory holds several snapshot and WAL generations.
	older := t.TempDir()
	c, err := corpus.Open(older, corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	old := &model{}
	oldScript := []opStep{{kind: 'a', name: names[3]}, {kind: 'a', name: names[4]}, {kind: 's'},
		{kind: 'a', name: names[5]}, {kind: 'd', sid: 0}, {kind: 'c'}, {kind: 'a', name: names[6]}, {kind: 's'}}
	if ff := runWorkload(t, c, oldScript, old); ff != -1 {
		t.Fatalf("older workload failed at step %d", ff)
	}
	c.Close()

	for _, start := range []struct {
		name   string
		before *model
		fill   func(dir string) error
	}{
		{"empty", &model{}, func(string) error { return nil }},
		{"older", old, func(dir string) error {
			ents, err := os.ReadDir(older)
			for _, e := range ents {
				raw, rerr := os.ReadFile(filepath.Join(older, e.Name()))
				err = errors.Join(err, rerr, os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644))
			}
			return err
		}},
	} {
		prepare := func(t *testing.T) string {
			dir := t.TempDir()
			if err := start.fill(dir); err != nil {
				t.Fatal(err)
			}
			return dir
		}
		counter := iofault.NewInjector(iofault.OS, iofault.Disarmed())
		if got, err := corpus.Install(prepare(t), raw, corpus.Options{FS: counter}); err != nil || got != lsn {
			t.Fatalf("%s: fault-free install = %d, %v; want %d", start.name, got, err, lsn)
		}
		total := counter.Ops()
		if total < 5 {
			t.Fatalf("%s: suspiciously few ops in a fault-free install: %d", start.name, total)
		}
		for _, fl := range []tortureFlavor{tortureFlavors[0], tortureFlavors[2]} {
			t.Run(start.name+"/"+fl.name, func(t *testing.T) {
				outcomes := map[bool]int{} // reopened as installed?
				for i := int64(0); i < total; i++ {
					dir := prepare(t)
					inj := iofault.NewInjector(iofault.OS, fl.plan(i))
					_, ierr := corpus.Install(dir, raw, corpus.Options{FS: inj})
					if inj.Faults() != 1 {
						t.Fatalf("[%d] fault fired %d times, want exactly 1", i, inj.Faults())
					}
					r, err := corpus.Open(dir, corpus.Options{})
					if err != nil {
						t.Fatalf("[%d] reopen after a faulted install (%v): %v", i, ierr, err)
					}
					got, want := logical(r), installed
					if ierr != nil && !stateEqual(got, installed) {
						want = start.before
					}
					if !stateEqual(got, want) {
						r.Close()
						t.Fatalf("[%d] install error %v; reopened as %d strings (%d live), neither the state before (%d strings) nor the installed one (%d strings)",
							i, ierr, len(got.strs), got.liveCount(), len(start.before.strs), len(installed.strs))
					}
					outcomes[want == installed]++
					if id, err := r.Add("post install probe"); err != nil || int(id) != len(want.strs) {
						t.Errorf("[%d] probe add after reopen: id %d, %v; want id %d", i, id, err, len(want.strs))
					}
					r.Close()
				}
				if outcomes[false] == 0 || outcomes[true] == 0 {
					t.Fatalf("over %d ops: %d reopened as before, %d as installed; the sweep must reach both sides of the commit point",
						total, outcomes[false], outcomes[true])
				}
			})
		}
	}
}
