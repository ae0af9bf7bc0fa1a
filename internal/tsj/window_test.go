package tsj

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/prefilter"
	"repro/internal/token"
)

// windowFamily returns strings of every aggregate length from 5 to 14 in
// three shapes that share tokens, and the index of shape A's string of
// each length: A(L) is "abcde" plus, from L = 6, the first L-5 letters of
// "fghijklmn" as a second token. A(short) and A(long) are long-short
// insertions apart, so their NSLD is 2(long-short)/(2 long) =
// 1-short/long, exactly LengthPrune's boundary.
func windowFamily() (raw []string, shapeA map[int]int) {
	const tail = "fghijklmn"
	shapeA = make(map[int]int)
	for l := 5; l <= 14; l++ {
		shapeA[l] = len(raw)
		if l == 5 {
			raw = append(raw, "abcde")
		} else {
			raw = append(raw, "abcde "+tail[:l-5], "qrstu "+tail[:l-5], "ab cde "+tail[:l-5])
		}
	}
	return raw, shapeA
}

// admittedPairs is Job 1's contract counted by brute force: over every
// pair a < b of strings (cross pairs only when nr >= 0) that LengthPrune
// keeps and whose prefixes meet, how many Admit emits from their first
// common prefix token and how many it prunes. Both prefixes are rank
// ascending, so the first token of a's prefix that b's holds is that
// token.
func admittedPairs(c *token.Corpus, nr int, t float64) (emitted, pruned int64) {
	pf := prefilter.NewIndex(c, nil, t)
	for a := 0; a < c.NumStrings(); a++ {
		for b := a + 1; b < c.NumStrings(); b++ {
			if nr >= 0 && (a >= nr || b < nr) || core.LengthPrune(c.Strings[a].AggregateLen(), c.Strings[b].AggregateLen(), t) {
				continue
			}
			sa, sb := token.StringID(a), token.StringID(b)
			for posA, z := range pf.Prefix(sa) {
				posB := pf.Pos(sb, z)
				if posB < 0 {
					continue
				}
				switch emit, prn := pf.Admit(sa, sb, posA, posB); {
				case emit:
					emitted++
				case prn:
					pruned++
				}
				break
			}
		}
	}
	return emitted, pruned
}

// TestSharedTokenLengthWindow: Job 1 enumerates a string's partners
// through a length window instead of testing every co-occurring pair.
// On self-join and bipartite corpora whose aggregate lengths sit exactly
// on LengthPrune's boundary, the joins return exactly the oracle's
// pairs, the boundary pair among them, and Job 1 emits and prunes
// exactly the length-feasible pairs Admit emits and prunes: a window end
// one short loses a pair, one long emits or prunes a pair LengthPrune
// rejects.
func TestSharedTokenLengthWindow(t *testing.T) {
	raw, shapeA := windowFamily()
	for _, tc := range []struct {
		t           float64
		short, long int
	}{{0.2, 8, 10}, {0.1, 9, 10}, {0.3, 7, 10}} {
		if !core.LengthPrune(tc.short-1, tc.long, tc.t) || core.LengthPrune(tc.short, tc.long, tc.t) {
			t.Fatalf("t=%v: %d/%d is not LengthPrune's boundary", tc.t, tc.short, tc.long)
		}
		// The bipartite corpus is the family on both sides, so each side
		// holds the shorter and the longer string of every boundary pair.
		for _, nr := range []int{-1, len(raw)} {
			strs := raw
			if nr >= 0 {
				strs = append(append([]string(nil), raw...), raw...)
			}
			c := token.BuildCorpus(strs, token.WhitespaceAndPunct)
			opts := DefaultOptions()
			opts.Threshold, opts.MaxTokenFreq = tc.t, 0
			label := fmt.Sprintf("t=%v nr=%d", tc.t, nr)
			got, st := joinOracle(t, label, c, nr, opts)
			a, b := shapeA[tc.short], shapeA[tc.long]
			if nr >= 0 {
				b += nr
			}
			if _, ok := resultSet(got)[[2]int{a, b}]; !ok {
				t.Errorf("%s: boundary pair %q | %q missing", label, strs[a], strs[b])
			}
			emitted, pruned := admittedPairs(c, nr, tc.t)
			if st.SharedTokenCandidates != emitted || st.PrefixPruned != pruned {
				t.Errorf("%s: Job 1 emitted %d and pruned %d, Admit emits %d and prunes %d",
					label, st.SharedTokenCandidates, st.PrefixPruned, emitted, pruned)
			}
		}
	}
}
