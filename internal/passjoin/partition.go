// Package passjoin holds the partition geometry of Pass-Join (Li, Deng,
// Wang, Feng; PVLDB 2011), the partition-based string similarity join the
// paper adopts — via its distributed version MassJoin — for the
// similar-token candidate generation of Sec. III-D.
//
// The core insight is Lemma 7: if LD(x, y) <= U, partitioning x into U+1
// segments guarantees at least one segment is a substring of y. The join
// indexes the segments of one side and probes with selected substrings of
// the other, then verifies surviving candidates with a banded Levenshtein
// computation.
//
// The join itself is internal/massjoin; the streaming matcher's segment
// index (internal/stream) probes the same geometry. This package provides
// what both share: the even partition (EvenPartition, EvenSegment), the
// substring selection windows (SubstringWindow), and the Pair a join
// emits.
package passjoin

// Segment describes one segment of an even partition: the start offset and
// length within the partitioned string.
type Segment struct {
	Start, Len int
}

// EvenPartition splits a string of length l into m segments whose lengths
// differ by at most one (the even-partition scheme of Sec. III-D, which
// minimizes the space of string chunks). The first m - l%m segments have
// length floor(l/m); the remaining l%m have length ceil(l/m). m must be
// >= 1; zero-length segments occur only when m > l.
func EvenPartition(l, m int) []Segment {
	segs := make([]Segment, m)
	for i := range segs {
		segs[i] = EvenSegment(l, m, i)
	}
	return segs
}

// EvenSegment returns segment i (0-based) of EvenPartition(l, m) without
// building the partition.
func EvenSegment(l, m, i int) Segment {
	base, long := l/m, i-(m-l%m) // long: how many ceil-length segments precede i
	if long < 0 {
		return Segment{Start: i * base, Len: base}
	}
	return Segment{Start: i*base + long, Len: base + 1}
}

// SubstringWindow returns the inclusive range [lo, hi] of start positions
// in a probe string of length lr at which a substring can match segment i
// (0-based) of an indexed string of length ls, under edit threshold tau.
//
// With multiMatch, the range is the multi-match-aware selection of
// Pass-Join (their Lemma 4): the intersection of the position-aware window
// |q - p_i| <= i and the length-aware window |q - (p_i + Δ)| <= tau - i,
// where Δ = lr - ls. Without it, the looser shift-based window
// |q - p_i| + |Δ - (q - p_i)| <= tau is used (the ablation baseline).
//
// An empty range is signalled by lo > hi.
func SubstringWindow(ls, lr, tau, i int, seg Segment, multiMatch bool) (lo, hi int) {
	delta := lr - ls
	p := seg.Start
	if multiMatch {
		lo = p - i
		if v := p + delta - (tau - i); v > lo {
			lo = v
		}
		hi = p + i
		if v := p + delta + (tau - i); v < hi {
			hi = v
		}
	} else {
		// Solve |u| + |Δ - u| <= tau for u = q - p. No solution exists
		// when |Δ| > tau (the length difference alone exceeds the budget).
		if delta > tau || -delta > tau {
			return 0, -1
		}
		if delta >= 0 {
			lo = p - (tau-delta)/2
			hi = p + delta + (tau-delta)/2
		} else {
			lo = p + delta - (tau+delta)/2
			hi = p + (tau+delta)/2
		}
	}
	if lo < 0 {
		lo = 0
	}
	if max := lr - seg.Len; hi > max {
		hi = max
	}
	return lo, hi
}
