package prefilter

import (
	"slices"
	"sort"
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

// TestFirstCommonSymmetric: FirstCommon agrees with a brute-force scan and
// is symmetric in its positions.
func TestFirstCommonSymmetric(t *testing.T) {
	raw := []string{
		"alpha bravo charlie delta",
		"alpha bravo echo foxtrot",
		"zulu yankee",
	}
	c := token.BuildCorpus(raw, token.WhitespaceAndPunct)
	ix := NewIndex(c, nil, 0.5)

	tid, pa, pb, ok := ix.FirstCommon(0, 1)
	if !ok {
		t.Fatal("strings 0 and 1 share tokens; FirstCommon found none")
	}
	tid2, pb2, pa2, ok2 := ix.FirstCommon(1, 0)
	if !ok2 || tid2 != tid || pa2 != pa || pb2 != pb {
		t.Fatalf("FirstCommon not symmetric: (%d,%d,%d) vs (%d,%d,%d)", tid, pa, pb, tid2, pa2, pb2)
	}
	if _, _, _, ok := ix.FirstCommon(0, 2); ok {
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

// refNewIndex is NewIndex as it stood before the counting sort, kept
// verbatim as the oracle for TestNewIndexMatchesSortOrder: one global
// sort.Slice for the order and one per string for its prefix.
func refNewIndex(c *token.Corpus, dropped []bool, t float64) *Index {
	ix := &Index{
		c:        c,
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

// TestNewIndexMatchesSortOrder: the counting-sort index is the sorting
// one — the same rank for every token, the same prefixes and distinct
// counts for every string, and the same Admit verdict for every pair that
// shares a prefix token — on a name corpus full of frequency ties, with
// no cutoff, with a max-frequency cutoff, and with an arbitrary dropped
// set. Every index is released once checked, so each after the first is
// built on the slabs of one with other prefixes.
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
			if !slices.Equal(got.rank, want.rank) {
				t.Fatalf("%s t=%g: ranks differ", tc.name, th)
			}
			// posting[z] lists the strings whose prefix holds z: every pair
			// that shares one is a pair some reducer sees.
			posting := make([][]token.StringID, c.NumTokens())
			for sid := range c.Strings {
				s := token.StringID(sid)
				if !slices.Equal(got.Prefix(s), want.Prefix(s)) || got.Distinct(s) != want.Distinct(s) {
					t.Fatalf("%s t=%g string %d %q: prefix %v distinct %d, want %v and %d", tc.name, th, sid,
						names[sid], got.Prefix(s), got.Distinct(s), want.Prefix(s), want.Distinct(s))
				}
				for _, z := range got.Prefix(s) {
					posting[z] = append(posting[z], s)
				}
			}
			for z, list := range posting {
				for i, a := range list {
					for _, b := range list[i+1:] {
						ge, gp := got.Admit(token.TokenID(z), a, b)
						we, wp := want.Admit(token.TokenID(z), a, b)
						if ge != we || gp != wp {
							t.Fatalf("%s t=%g: Admit(%d, %d, %d) = %v/%v, want %v/%v", tc.name, th, z, a, b, ge, gp, we, wp)
						}
					}
				}
			}
			got.Release()
		}
	}
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
