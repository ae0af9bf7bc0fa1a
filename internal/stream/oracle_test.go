package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/nsldtest"
	"repro/internal/token"
)

// newMatcher builds a matcher the test closes on cleanup.
func newMatcher(t *testing.T, opt Options, shards int) *ShardedMatcher {
	t.Helper()
	m, err := NewShardedMatcher(opt, shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// streamAll adds every name to a fresh matcher and returns the per-add
// match sets and the final stats.
func streamAll(t *testing.T, names []string, opt Options, shards int) ([][]Match, ShardedStats) {
	t.Helper()
	m := newMatcher(t, opt, shards)
	out := make([][]Match, len(names))
	for i, n := range names {
		var id int
		if id, out[i] = m.Add(n); id != i {
			t.Fatalf("name %d: id = %d", i, id)
		}
	}
	return out, m.Stats()
}

func tokenizeAll(names []string) []token.TokenizedString {
	strs := make([]token.TokenizedString, len(names))
	for i, n := range names {
		strs[i] = token.WhitespaceAndPunct(n)
	}
	return strs
}

// oracleMatches is the naive join's matches of x against strs.
func oracleMatches(x token.TokenizedString, strs []token.TokenizedString, th float64, greedy bool) []Match {
	var out []Match
	for _, h := range nsldtest.Matches(x, strs, th, greedy) {
		out = append(out, Match(h))
	}
	return out
}

// oracleStream is the naive join's answer to adding names in order:
// element i holds the matches of names[i] against names[:i].
func oracleStream(names []string, th float64, greedy bool) [][]Match {
	strs := tokenizeAll(names)
	out := make([][]Match, len(strs))
	for i := range strs {
		out[i] = oracleMatches(strs[i], strs[:i], th, greedy)
	}
	return out
}

// cutoffStream is the cutoff oracle's answer to adding names in order
// under opt: element i holds nsldtest.Cutoff's matches of names[i]
// against names[:i], which the matcher must reproduce exactly at any
// MaxTokenFreq, matching mode and aligner.
func cutoffStream(names []string, opt Options) [][]Match {
	o := nsldtest.Cutoff{T: opt.Threshold, M: opt.MaxTokenFreq, Exact: opt.ExactTokensOnly, Greedy: opt.Greedy}
	strs := tokenizeAll(names)
	out := make([][]Match, len(strs))
	for i := range strs {
		for _, h := range o.Matches(strs[i], strs[:i]) {
			out[i] = append(out[i], Match(h))
		}
	}
	return out
}

// matchesEqual compares two id-sorted match lists element-wise (nil and
// empty are equal).
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

// checkStreams fails at the first element where got differs from want.
func checkStreams(t *testing.T, label string, want, got [][]Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !matchesEqual(want[i], got[i]) {
			t.Fatalf("%s: element %d: %v, want %v", label, i, got[i], want[i])
		}
	}
}

// pairsOf flattens per-element match lists into the oracle's pair form:
// (earlier id, element) -> SLD.
func pairsOf(stream [][]Match) map[[2]int]int {
	out := make(map[[2]int]int)
	for i, ms := range stream {
		for _, m := range ms {
			out[[2]int{m.ID, i}] = m.SLD
		}
	}
	return out
}

// TestOracleEquivalence: the exact and the greedy matcher return exactly
// the naive join's matches through Add, AddAll and Query, at several
// thresholds and shard counts, with token-less strings mixed in. AddAll
// verifies every element as per-element Add does, so the two
// report the same verify funnel.
func TestOracleEquivalence(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 61, NumNames: 200})
	names[17], names[101], names[102] = "...", "--", "?!"
	probes := append(namegen.Generate(namegen.Config{Seed: 62, NumNames: 30}), "!!", names[5], names[150])
	strs := tokenizeAll(names)
	for _, greedy := range []bool{false, true} {
		for _, th := range []float64{0.1, 0.2, 0.3} {
			want := oracleStream(names, th, greedy)
			for _, shards := range []int{1, 3, 8} {
				opt := Options{Threshold: th, Greedy: greedy}
				label := fmt.Sprintf("greedy=%v T=%.2f shards=%d", greedy, th, shards)
				got, ast := streamAll(t, names, opt, shards)
				checkStreams(t, label+" Add", want, got)
				m := newMatcher(t, opt, shards)
				first, batch := m.AddAll(names)
				if first != 0 {
					t.Fatalf("%s: AddAll first = %d", label, first)
				}
				checkStreams(t, label+" AddAll", want, batch)
				if bst := m.Stats(); bst.Verified != ast.Verified || bst.BudgetPruned != ast.BudgetPruned || bst.SigPruned != ast.SigPruned {
					t.Fatalf("%s: AddAll funnel %d/%d/%d, Add %d/%d/%d (verified/budget-pruned/sig-pruned)",
						label, bst.Verified, bst.BudgetPruned, bst.SigPruned, ast.Verified, ast.BudgetPruned, ast.SigPruned)
				}
				for _, p := range probes {
					if w, g := oracleMatches(token.WhitespaceAndPunct(p), strs, th, greedy), m.Query(p); !matchesEqual(w, g) {
						t.Fatalf("%s: Query %q: %v, want %v", label, p, g, w)
					}
				}
			}
		}
	}
}

// TestOracleEquivalenceSubsets: the approximations only ever lose pairs.
// Exact-token matching, a finite MaxTokenFreq and the greedy aligner
// return subsets of the exact oracle's matches, at one shard and more.
func TestOracleEquivalenceSubsets(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 32, NumNames: 200})
	for _, th := range []float64{0.15, 0.25} {
		want := oracleStream(names, th, false)
		for _, opt := range []Options{
			{Threshold: th, ExactTokensOnly: true},
			{Threshold: th, MaxTokenFreq: 2},
			{Threshold: th, MaxTokenFreq: 5, ExactTokensOnly: true},
			{Threshold: th, Greedy: true},
		} {
			for _, shards := range []int{1, 3} {
				got, _ := streamAll(t, names, opt, shards)
				if err := nsldtest.Subset(pairsOf(want), pairsOf(got)); err != nil {
					t.Fatalf("T=%.2f M=%d exact=%v greedy=%v shards=%d: %v",
						th, opt.MaxTokenFreq, opt.ExactTokensOnly, opt.Greedy, shards, err)
				}
			}
		}
	}
}

// TestOracleEquivalenceMonotone: raising the threshold never loses a
// match, for the exact and the greedy matcher.
func TestOracleEquivalenceMonotone(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 63, NumNames: 200})
	for _, greedy := range []bool{false, true} {
		var prev [][]Match
		for _, th := range []float64{0.05, 0.1, 0.15, 0.2, 0.3} {
			got, _ := streamAll(t, names, Options{Threshold: th, Greedy: greedy}, 3)
			if prev != nil {
				if err := nsldtest.Subset(pairsOf(got), pairsOf(prev)); err != nil {
					t.Fatalf("greedy=%v T=%.2f: %v", greedy, th, err)
				}
			}
			prev = got
		}
	}
}

// scriptOp is one step of an Add/Delete/Query script: add name, delete
// the string with id, or query name.
type scriptOp struct {
	kind byte // 'a', 'd' or 'q'
	name string
	id   int
}

// deleteScript adds every name in order; after each add it deletes a
// live id with probability 1/3 and queries a name with probability 1/2.
func deleteScript(names []string, seed int64) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []scriptOp
	var live []int
	for i, n := range names {
		ops = append(ops, scriptOp{kind: 'a', name: n})
		live = append(live, i)
		if rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			ops = append(ops, scriptOp{kind: 'd', id: live[k]})
			live = append(live[:k], live[k+1:]...)
		}
		if rng.Intn(2) == 0 {
			ops = append(ops, scriptOp{kind: 'q', name: names[rng.Intn(len(names))]})
		}
	}
	return ops
}

// cutoffModel is the stream rule under deletes: nsldtest.Cutoff over the
// live strings, so a deleted string neither counts toward the document
// frequencies nor is answered.
type cutoffModel struct {
	o    nsldtest.Cutoff
	strs []token.TokenizedString
	dead []bool
}

func (md *cutoffModel) add(ts token.TokenizedString) {
	md.strs = append(md.strs, ts)
	md.dead = append(md.dead, false)
}

// matches is the model's answer to x, arriving now.
func (md *cutoffModel) matches(x token.TokenizedString) []Match {
	var live []token.TokenizedString
	var ids []int
	for id, s := range md.strs {
		if !md.dead[id] {
			live = append(live, s)
			ids = append(ids, id)
		}
	}
	var out []Match
	for _, h := range md.o.Matches(x, live) {
		h.ID = ids[h.ID]
		out = append(out, Match(h))
	}
	return out
}

// TestOracleEquivalenceDeletes pins the stream's frequency semantics
// under deletes: a deleted string stops counting at once, so under a
// finite cutoff M it no longer gates the tokens it held, and it is never
// answered itself. An Add/Delete/Query script runs at M ∈ {1, 2} on 1
// and 3 shards, on an in-memory matcher and on one warm-loaded from a
// corpus that ran the script's first half. Every answer must be the
// one rule's, cutoffModel's over the live strings, whichever way the
// matcher was built. Tombstone sweeps run every few deletes and must not
// change the counts.
func TestOracleEquivalenceDeletes(t *testing.T) {
	defer func(old int) { sweepMinDeletes = old }(sweepMinDeletes)
	sweepMinDeletes = 4
	names := namegen.Generate(namegen.Config{Seed: 64, NumNames: 240})
	ops := deleteScript(names, 65)
	const th = 0.2
	for _, maxFreq := range []int{1, 2} {
		opt := Options{Threshold: th, MaxTokenFreq: maxFreq}
		for _, warm := range []bool{false, true} {
			for _, shards := range []int{1, 3} {
				label := fmt.Sprintf("M=%d warm=%v shards=%d", maxFreq, warm, shards)
				md := &cutoffModel{o: nsldtest.Cutoff{T: th, M: maxFreq}}
				rest := ops
				var m *ShardedMatcher
				if warm {
					rest = ops[len(ops)/2:]
					pc, err := corpus.Open(t.TempDir(), corpus.Options{DisableSync: true})
					if err != nil {
						t.Fatal(err)
					}
					defer pc.Close()
					for _, op := range ops[:len(ops)/2] {
						var err error
						switch op.kind {
						case 'a':
							_, err = pc.Add(op.name)
							md.add(token.WhitespaceAndPunct(op.name))
						case 'd':
							err = pc.Delete(token.StringID(op.id))
							md.dead[op.id] = true
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if m, err = NewShardedFromCorpus(opt, shards, pc); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(m.Close)
				} else {
					m = newMatcher(t, opt, shards)
				}
				for i, op := range rest {
					ts := token.WhitespaceAndPunct(op.name)
					switch op.kind {
					case 'a':
						want := md.matches(ts)
						id, got := m.Add(op.name)
						if id != len(md.strs) || !matchesEqual(want, got) {
							t.Fatalf("%s: op %d: Add %q = %d, %v; want %d, %v", label, i, op.name, id, got, len(md.strs), want)
						}
						md.add(ts)
					case 'd':
						if err := m.Delete(op.id); err != nil {
							t.Fatalf("%s: op %d: %v", label, i, err)
						}
						md.dead[op.id] = true
					case 'q':
						if want, got := md.matches(ts), m.Query(op.name); !matchesEqual(want, got) {
							t.Fatalf("%s: op %d: Query %q = %v; want %v", label, i, op.name, got, want)
						}
					}
				}
				if st := m.Stats(); st.Sweeps == 0 {
					t.Fatalf("%s: no tombstone sweep ran", label)
				}
			}
		}
	}
}
