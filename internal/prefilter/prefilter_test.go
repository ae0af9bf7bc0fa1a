package prefilter

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/namegen"
	"repro/internal/token"
)

// TestMaxPartnerAggLenBoundary: the returned length is admissible under
// the exact integer form of Lemma 6 and the next one is not.
func TestMaxPartnerAggLenBoundary(t *testing.T) {
	for _, th := range []float64{0, 0.05, 0.1, 0.25, 0.5, 0.9} {
		for _, l := range []int{0, 1, 2, 5, 17, 100, 1000} {
			lb := MaxPartnerAggLen(th, l)
			if lb < l {
				t.Fatalf("t=%g l=%d: partner bound %d below own length", th, l, lb)
			}
			if th > 0 && th < 1 {
				if float64(l) < (1-th)*float64(lb)-1e-9 {
					t.Fatalf("t=%g l=%d: bound %d not admissible", th, l, lb)
				}
				if !(float64(l) < (1-th)*float64(lb+1)-1e-9) && float64(l) >= (1-th)*float64(lb+1) {
					t.Fatalf("t=%g l=%d: bound %d not maximal", th, l, lb)
				}
			}
		}
	}
}

// TestMaxErrorsDominatesPairBudget: MaxErrors(t, L(x)) >= MaxSLDWithin(t,
// L(x), L(y)) for every partner length admissible under Lemma 6 — the
// property the per-string prefix length rests on.
func TestMaxErrorsDominatesPairBudget(t *testing.T) {
	for _, th := range []float64{0.05, 0.1, 0.2, 0.35} {
		for _, lx := range []int{1, 3, 8, 20, 60} {
			b := MaxErrors(th, lx)
			for ly := 0; ly <= MaxPartnerAggLen(th, lx); ly++ {
				if pair := core.MaxSLDWithin(th, lx, ly); pair > b {
					t.Fatalf("t=%g lx=%d ly=%d: pair budget %d exceeds MaxErrors %d",
						th, lx, ly, pair, b)
				}
			}
		}
	}
}

// TestPrefixLenShrinks: small thresholds yield prefixes far shorter than
// the distinct-token count — the point of the filter.
func TestPrefixLenShrinks(t *testing.T) {
	// 10 tokens of 6 runes each: aggregate 60, distinct 10.
	if p := PrefixLen(0.1, 60, 10); p >= 10 {
		t.Fatalf("PrefixLen(0.1, 60, 10) = %d, want < 10", p)
	}
	if p := PrefixLen(0, 60, 10); p != 1 {
		t.Fatalf("PrefixLen(0, 60, 10) = %d, want 1 (zero threshold: exact duplicates share every token)", p)
	}
	if p := PrefixLen(0.9, 60, 10); p != 10 {
		t.Fatalf("PrefixLen(0.9, 60, 10) = %d, want full set at a lax threshold", p)
	}
}

// TestIndexDeterministicUnderTies: with every token at the same document
// frequency, the order must fall back to TokenID (lexicographic token
// order) and prefixes must be reproducible across builds.
func TestIndexDeterministicUnderTies(t *testing.T) {
	raw := []string{
		"delta echo alpha",
		"bravo charlie foxtrot",
		"golf hotel india",
	}
	c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
	a := NewIndex(c, nil, 0.2)
	b := NewIndex(c, nil, 0.2)
	for sid := 0; sid < c.NumStrings(); sid++ {
		pa, pb := a.Prefix(token.StringID(sid)), b.Prefix(token.StringID(sid))
		if len(pa) != len(pb) {
			t.Fatalf("sid %d: prefix lengths differ across builds", sid)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("sid %d: prefix token %d differs across builds", sid, i)
			}
		}
		// Every token has freq 1 here, so the prefix must be the
		// lexicographically (TokenID-) smallest members.
		mem := c.Members[sid]
		for i, tid := range pa {
			if tid != mem[i] {
				t.Fatalf("sid %d: tie-break not by TokenID: prefix[%d]=%d want %d",
					sid, i, tid, mem[i])
			}
		}
	}
}

// TestFirstCommonSymmetric: the first token (in the global order) the
// two prefixes share owns the pair: Admit emits it at that token's
// positions and at no later shared token's, in either argument order.
func TestFirstCommonSymmetric(t *testing.T) {
	raw := []string{
		"alpha bravo charlie delta",
		"alpha bravo echo foxtrot",
		"zulu yankee",
	}
	c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
	ix := NewIndex(c, nil, 0.5)

	tid, pa, pb, ok := firstCommon(ix, 0, 1)
	if !ok {
		t.Fatal("strings 0 and 1 share tokens; the oracle found none")
	}
	tid2, pb2, pa2, ok2 := firstCommon(ix, 1, 0)
	if !ok2 || tid2 != tid || pa2 != pa || pb2 != pb {
		t.Fatalf("first common token not symmetric: (%d,%d,%d) vs (%d,%d,%d)", tid, pa, pb, tid2, pa2, pb2)
	}
	owners := 0
	for _, z := range ix.Prefix(0) {
		posA, posB := ix.Pos(0, z), ix.Pos(1, z)
		if posB < 0 {
			continue
		}
		e1, p1 := ix.Admit(0, 1, posA, posB)
		e2, p2 := ix.Admit(1, 0, posB, posA)
		if e1 != e2 || p1 != p2 {
			t.Fatalf("token %d: Admit not symmetric: %v/%v vs %v/%v", z, e1, p1, e2, p2)
		}
		if owner := e1 || p1; owner != (z == tid) {
			t.Fatalf("token %d decided the pair: %v, want %v (first common token %d)", z, owner, z == tid, tid)
		}
		if e1 || p1 {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("%d reducers decided the pair, want 1", owners)
	}
	if _, _, _, ok := firstCommon(ix, 0, 2); ok {
		t.Fatal("disjoint strings reported a common prefix token")
	}
}

// TestDroppedTokensExcluded: dropped tokens take no rank and never appear
// in prefixes.
func TestDroppedTokensExcluded(t *testing.T) {
	raw := []string{"hot alpha", "hot bravo", "hot charlie"}
	c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
	dropped := make([]bool, c.NumTokens())
	hot, ok := c.TokenIDOf("hot")
	if !ok {
		t.Fatal("token 'hot' missing")
	}
	dropped[hot] = true
	ix := NewIndex(c, dropped, 0.4)
	for sid := 0; sid < c.NumStrings(); sid++ {
		for _, tid := range ix.Prefix(token.StringID(sid)) {
			if tid == hot {
				t.Fatalf("sid %d: dropped token in prefix", sid)
			}
		}
	}
}

// refIndex is the pruning index as NewIndex built it before the
// counting sort and the prefix positions, kept as the oracle for
// TestNewIndexMatchesSortOrder and TestJob1OwnershipSignatureCollisions:
// one global sort.Slice for the order, one per string for its prefix, and
// ownership decided by merging the two full prefixes through rank.
type refIndex struct {
	rank        []int32 // TokenID -> global rank; -1 for dropped tokens
	prefix      [][]token.TokenID
	distinct    []int32
	aggLen      []int32
	budgetBySum []int
}

func refNewIndex(c *token.Corpus, dropped []bool, t float64) *refIndex {
	ix := &refIndex{
		rank:     make([]int32, c.NumTokens()),
		prefix:   make([][]token.TokenID, c.NumStrings()),
		distinct: make([]int32, c.NumStrings()),
		aggLen:   make([]int32, c.NumStrings()),
	}
	maxLen := 0
	for sid := range c.Strings {
		l := c.Strings[sid].AggregateLen()
		ix.aggLen[sid] = int32(l)
		if l > maxLen {
			maxLen = l
		}
	}
	ix.budgetBySum = make([]int, 2*maxLen+1)
	for sum := range ix.budgetBySum {
		ix.budgetBySum[sum] = core.MaxSLDWithin(t, sum, 0)
	}
	// Global order: kept tokens by (document frequency asc, TokenID asc).
	// The deterministic tie-break is load-bearing: prefix sets must agree
	// across workers, shards, and the batch/stream engines, and document
	// frequencies tie constantly in real corpora.
	kept := make([]token.TokenID, 0, c.NumTokens())
	for tid := 0; tid < c.NumTokens(); tid++ {
		if dropped == nil || !dropped[tid] {
			kept = append(kept, token.TokenID(tid))
		} else {
			ix.rank[tid] = -1
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		fi, fj := c.Freq[kept[i]], c.Freq[kept[j]]
		if fi != fj {
			return fi < fj
		}
		return kept[i] < kept[j]
	})
	for r, tid := range kept {
		ix.rank[tid] = int32(r)
	}

	// Per-string prefixes: rank-sort the kept members, keep the head.
	var scratch []token.TokenID
	for sid := range c.Members {
		scratch = scratch[:0]
		for _, tid := range c.Members[sid] {
			if ix.rank[tid] >= 0 {
				scratch = append(scratch, tid)
			}
		}
		ix.distinct[sid] = int32(len(scratch))
		p := PrefixLen(t, c.Strings[sid].AggregateLen(), len(scratch))
		if p == 0 {
			continue
		}
		sort.Slice(scratch, func(i, j int) bool { return ix.rank[scratch[i]] < ix.rank[scratch[j]] })
		ix.prefix[sid] = append([]token.TokenID(nil), scratch[:p]...)
	}
	return ix
}

// firstCommon is the brute-force ownership oracle: the first token (in
// the global order) present in both prefixes, with its position in each,
// or ok = false when the prefixes are disjoint. Both prefixes are rank
// ascending, so the first token of a's prefix that b's holds is it.
func firstCommon(ix *Index, a, b token.StringID) (tid token.TokenID, posA, posB int, ok bool) {
	for i, z := range ix.Prefix(a) {
		if j := slices.Index(ix.Prefix(b), z); j >= 0 {
			return z, i, j, true
		}
	}
	return 0, 0, 0, false
}

// admit is Admit as it stood before prefix positions: the owner found by
// merging both full prefixes through rank, then the positional filter.
func (ix *refIndex) admit(z token.TokenID, a, b token.StringID) (emit, pruned bool) {
	pa, pb := ix.prefix[a], ix.prefix[b]
	posA, posB := 0, 0
	for posA < len(pa) && posB < len(pb) && pa[posA] != pb[posB] {
		if ix.rank[pa[posA]] < ix.rank[pb[posB]] {
			posA++
		} else {
			posB++
		}
	}
	if posA == len(pa) || posB == len(pb) || pa[posA] != z {
		return false, false // another reducer owns the pair
	}
	budget := ix.budgetBySum[ix.aggLen[a]+ix.aggLen[b]]
	da, db := int(ix.distinct[a]), int(ix.distinct[b])
	req := max(da, db) - budget
	if req > 1 && 1+min(da-posA-1, db-posB-1) < req {
		return false, true
	}
	return true, false
}

// TestNewIndexMatchesSortOrder: the counting-sort index is the sorting
// one — the same prefixes, prefix ranks and distinct counts for every
// string, and the same Admit verdict, from the prefix positions, as the
// full-prefix merge gives for every pair that shares a prefix token — on
// a name corpus full of frequency ties, with no cutoff, with a
// max-frequency cutoff, and with an arbitrary dropped set. Every index is
// released once checked, so each after the first is built on the slabs
// of one with other prefixes.
func TestNewIndexMatchesSortOrder(t *testing.T) {
	names := append(namegen.Generate(namegen.Config{Seed: 5, NumNames: 1200}),
		"", "...", "bo bo bo", "a a b", "Zoë \U0001F600 zoë")
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	cutoff := make([]bool, c.NumTokens()) // MaxTokenFreq = 3
	arbitrary := make([]bool, c.NumTokens())
	nCut := 0
	for tid, f := range c.Freq {
		cutoff[tid] = f > 3
		arbitrary[tid] = tid%7 == 3
		if cutoff[tid] {
			nCut++
		}
	}
	if nCut == 0 {
		t.Fatal("the corpus has no token above the cutoff")
	}
	for _, tc := range []struct {
		name    string
		dropped []bool
	}{
		{"nil", nil},
		{"none", make([]bool, c.NumTokens())},
		{"cutoff", cutoff},
		{"arbitrary", arbitrary},
	} {
		for _, th := range []float64{0, 0.1, 0.3, 0.6} {
			want := refNewIndex(c, tc.dropped, th)
			got := NewIndex(c, tc.dropped, th)
			checkAgainstRef(t, fmt.Sprintf("%s t=%g", tc.name, th), got, want, names)
			got.Release()
		}
	}
}

// checkAgainstRef fails unless ix has ref's prefixes, prefix ranks and
// distinct counts, and Admit, given each shared prefix token's positions,
// returns ref's verdict for every pair of strings sharing one.
func checkAgainstRef(t *testing.T, label string, ix *Index, ref *refIndex, raw []string) (fallbacks, owned int) {
	t.Helper()
	// posting[z] lists the strings whose prefix holds z: every pair
	// that shares one is a pair some reducer sees.
	posting := make([][]token.StringID, len(ref.rank))
	for sid := range ref.prefix {
		s := token.StringID(sid)
		if !slices.Equal(ix.Prefix(s), ref.prefix[sid]) || ix.Distinct(s) != int(ref.distinct[sid]) {
			t.Fatalf("%s string %d %q: prefix %v distinct %d, want %v and %d", label, sid,
				raw[sid], ix.Prefix(s), ix.Distinct(s), ref.prefix[sid], ref.distinct[sid])
		}
		lo := ix.off[sid]
		for i, z := range ix.Prefix(s) {
			if ix.rank[int(lo)+i] != ref.rank[z] {
				t.Fatalf("%s string %d: prefix rank %d of token %d, want %d", label, sid, ix.rank[int(lo)+i], z, ref.rank[z])
			}
			posting[z] = append(posting[z], s)
		}
	}
	for z, list := range posting {
		for i, a := range list {
			for _, b := range list[i+1:] {
				posA, posB := ix.Pos(a, token.TokenID(z)), ix.Pos(b, token.TokenID(z))
				ge, gp := ix.Admit(a, b, posA, posB)
				we, wp := ref.admit(token.TokenID(z), a, b)
				if ge != we || gp != wp {
					t.Fatalf("%s: Admit(%d, %d) at token %d = %v/%v, want %v/%v", label, a, b, z, ge, gp, we, wp)
				}
				if ix.head[int(ix.off[a])+posA]&ix.head[int(ix.off[b])+posB] != 0 {
					fallbacks++
					if we || wp {
						owned++
					}
				}
			}
		}
	}
	return fallbacks, owned
}

// TestJob1OwnershipSignatureCollisions: Job 1's ownership rule is exact
// where the 64-bit head signatures collide. Each corpus holds more than
// 64 kept tokens, so head ranks congruent mod 64 share a signature bit:
// a crafted corpus puts ranks r and r+64 in the heads of two strings that
// then share a token, and random corpora of long strings over a few
// hundred tokens collide by the thousand. On each, the pairs Job 1 emits
// from every reducer and the pairs it prunes equal the brute-force
// first-common-token oracle's, every surviving pair is emitted exactly
// once, and the fallback both clears disjoint heads and rejects heads
// that meet.
func TestJob1OwnershipSignatureCollisions(t *testing.T) {
	// Crafted: k000…k127 occur once each and sort by id, so k000 has rank
	// 0 and k064 rank 64. "k000 zz" and "k064 zz" share zz behind heads
	// whose signatures meet at bit 0 and whose ranks do not; "m1 m2 zq"
	// and "m1 m3 zq" share zq behind heads that truly share m1.
	filler := make([]string, 0, 126)
	for i := 1; i < 128; i++ {
		if i != 64 {
			filler = append(filler, fmt.Sprintf("k%03d", i))
		}
	}
	crafted := []string{"k000 zz", "k064 zz", strings.Join(filler, " "), "m1 m2 zq", "m1 m3 zq"}

	rng := rand.New(rand.NewSource(11))
	vocab := make([]string, 300)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	random := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			toks := make([]string, 8+rng.Intn(5))
			for j := range toks {
				toks[j] = vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())] // skewed: early words are common
			}
			out[i] = strings.Join(toks, " ")
		}
		return out
	}
	var fallbacks, owned int
	for ci, raw := range [][]string{crafted, random(300), random(600)} {
		c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
		if c.NumTokens() <= 64 {
			t.Fatalf("corpus %d has %d tokens; signatures cannot collide", ci, c.NumTokens())
		}
		for _, th := range []float64{0.1, 0.3, 0.5} {
			label := fmt.Sprintf("corpus %d t=%g", ci, th)
			ix, ref := NewIndex(c, nil, th), refNewIndex(c, nil, th)
			f, o := checkAgainstRef(t, label, ix, ref, raw)
			if ci == 0 && th == 0.5 && (o != 1 || f != 2) {
				t.Fatalf("%s: %d signature fallbacks, %d of them owned; want the two crafted ones, one owned", label, f, o)
			}
			fallbacks, owned = fallbacks+f, owned+o
			// Job 1 as the pipeline runs it: every reducer's emits and
			// prunes over the length-feasible pairs of its postings.
			emitted := make(map[[2]token.StringID]int)
			var pruned int
			posting := make([][]token.StringID, c.NumTokens())
			for sid := range c.Strings {
				for _, z := range ix.Prefix(token.StringID(sid)) {
					posting[z] = append(posting[z], token.StringID(sid))
				}
			}
			for z, list := range posting {
				for i, a := range list {
					for _, b := range list[i+1:] {
						if core.LengthPrune(c.Strings[a].AggregateLen(), c.Strings[b].AggregateLen(), th) {
							continue
						}
						switch e, p := ix.Admit(a, b, ix.Pos(a, token.TokenID(z)), ix.Pos(b, token.TokenID(z))); {
						case e:
							emitted[[2]token.StringID{a, b}]++
						case p:
							pruned++
						}
					}
				}
			}
			// The oracle: each length-feasible pair whose prefixes meet,
			// decided once at its first common token.
			var wantEmitted, wantPruned int
			for a := range c.Strings {
				for b := a + 1; b < len(c.Strings); b++ {
					sa, sb := token.StringID(a), token.StringID(b)
					z, _, _, ok := firstCommon(ix, sa, sb)
					if !ok || core.LengthPrune(c.Strings[a].AggregateLen(), c.Strings[b].AggregateLen(), th) {
						continue
					}
					e, p := ref.admit(z, sa, sb)
					switch n := emitted[[2]token.StringID{sa, sb}]; {
					case e && n != 1:
						t.Fatalf("%s: pair (%d, %d) emitted %d times, want once", label, a, b, n)
					case !e && n != 0:
						t.Fatalf("%s: pair (%d, %d) emitted %d times, want none", label, a, b, n)
					}
					if e {
						wantEmitted++
					}
					if p {
						wantPruned++
					}
				}
			}
			if len(emitted) != wantEmitted || pruned != wantPruned {
				t.Fatalf("%s: Job 1 emitted %d and pruned %d, the oracle %d and %d", label, len(emitted), pruned, wantEmitted, wantPruned)
			}
			ix.Release()
		}
	}
	// Both outcomes of the fallback must have been exercised: heads whose
	// signatures meet yet share no token, and heads that share one.
	if owned == 0 || owned == fallbacks {
		t.Fatalf("%d signature fallbacks, %d of them owned: the merge was not driven both ways", fallbacks, owned)
	}
	t.Logf("%d signature fallbacks, %d of them owned", fallbacks, owned)
}

func BenchmarkNewIndex(b *testing.B) {
	c := token.BuildCorpus(namegen.Generate(namegen.Config{Seed: 3, NumNames: 8000}), token.WhitespaceAndPunct)
	dropped := make([]bool, c.NumTokens())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := NewIndex(c, dropped, 0.1); ix.Distinct(0) == 0 {
			b.Fatal("string 0 has no kept token")
		}
	}
}
