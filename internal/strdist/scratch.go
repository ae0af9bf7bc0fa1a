package strdist

// growRow returns a slice of length n backed by row's storage when it is
// large enough, reallocating (amortized, power-of-two) otherwise, so a
// reused DP row reaches a steady state with zero allocations.
func growRow[T int | uint16](row []T, n int) []T {
	if cap(row) >= n {
		return row[:n]
	}
	c := cap(row) * 2
	if c < n {
		c = n
	}
	if c < 16 {
		c = 16
	}
	return make([]T, n, c)
}

// The "outside the band" sentinels of the two row widths. The uint16 rows
// are only used when the longer input is shorter than u16Limit, so a cell
// can grow past u16Inf by at most len(b) < u16Limit without wrapping
// uint16 (u16Inf + u16Limit < 65536).
const (
	u16Inf   = 1 << 15
	u16Limit = 1<<15 - 1
	intInf   = int(^uint(0) >> 2)
)

// LevenshteinBoundedScratchU16 returns LD(a, b) if it is at most max, and
// reports whether it was. When the distance exceeds max it returns
// max+1, false; a negative max always reports false.
//
// It runs the standard banded (Ukkonen) dynamic program, which fills only
// the diagonal band of half-width max, O(max*min(len(a),len(b))) time:
// the token verifier of MassJoin, the stream's segment index and the TSJ
// cost matrix, where max comes from the NLD threshold (Lemma 8) or the
// SLD budget. The DP row is caller-owned: *row is grown as needed and
// retained across calls, so a hot loop that reuses it allocates nothing.
// Its cells are uint16, which halves the row's cache footprint; an input
// whose longer side reaches u16Limit runes (cell values scale with it, so
// uint16 would wrap) runs the same band on a throwaway []int row.
func LevenshteinBoundedScratchU16(a, b []rune, max int, row *[]uint16) (int, bool) {
	if len(a) >= u16Limit || len(b) >= u16Limit {
		var tmp []int
		return banded(a, b, max, intInf, &tmp)
	}
	return banded(a, b, max, uint16(u16Inf), row)
}

// banded is the one banded Levenshtein DP, over rows of either width; inf
// must exceed the longer input's length, and that length added to inf
// must still fit T. r[j] holds the edit distance between a[:i] and b[:j]
// within the band |j - i| <= max; cells outside the band read as inf.
func banded[T int | uint16](a, b []rune, max int, inf T, row *[]T) (int, bool) {
	if max < 0 {
		return max + 1, false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	// Length difference alone is a lower bound on LD.
	if len(b)-len(a) > max {
		return max + 1, false
	}
	if len(a) == 0 {
		return len(b), true
	}
	// LD <= len(b), so a wider band cannot change the answer.
	max = min(max, len(b))
	m := T(max)
	r := growRow(*row, len(b)+1)
	*row = r
	for j := 0; j <= max; j++ {
		r[j] = T(j)
	}
	for j := max + 1; j <= len(b); j++ {
		r[j] = inf
	}
	for i := 1; i <= len(a); i++ {
		lo := i - max
		if lo < 1 {
			lo = 1
		}
		hi := i + max
		if hi > len(b) {
			hi = len(b)
		}
		// prev holds row[i-1][lo-1], the cell left of the band start
		// (inside the previous row's band).
		prev := r[lo-1]
		if lo == 1 {
			prev = T(i - 1) // column 0 of the previous row
		}
		if i-max-1 >= 0 {
			// Column lo-1 is outside the band for row i.
			r[lo-1] = inf
		} else {
			r[0] = T(i)
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			cur := r[j] // row[i-1][j] (inf when outside previous band)
			cost := T(1)
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost
			if d := r[j-1] + 1; d < best {
				best = d
			}
			if d := cur + 1; d < best {
				best = d
			}
			prev = cur
			r[j] = best
			if best < rowMin {
				rowMin = best
			}
		}
		if rowMin > m {
			return max + 1, false
		}
	}
	if d := r[len(b)]; d <= m {
		return int(d), true
	}
	return max + 1, false
}
