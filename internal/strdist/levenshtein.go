package strdist

// Levenshtein returns LD(a, b): the minimum number of character-level edit
// operations (insertion, deletion, substitution; Definition 1 in the paper)
// that transform a into b. It is a metric (Lemma 1).
func Levenshtein(a, b string) int {
	return LevenshteinRunes([]rune(a), []rune(b))
}

// LevenshteinRunes is Levenshtein on pre-decoded rune slices.
//
// The implementation is the classic two-row dynamic program over the
// (len(a)+1) x (len(b)+1) edit matrix, O(len(a)*len(b)) time and
// O(min(len(a),len(b))) space. It is the unbounded reference; every
// threshold-decided caller runs the banded LevenshteinBoundedScratchU16.
func LevenshteinRunes(a, b []rune) int {
	// Keep the row as short as possible.
	if len(a) < len(b) {
		a, b = b, a
	}
	r := make([]int, len(b)+1)
	for j := range r {
		r[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := r[0] // row[i-1][0]
		r[0] = i
		for j := 1; j <= len(b); j++ {
			cur := r[j] // row[i-1][j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost            // substitution / match
			if d := r[j-1] + 1; d < best { // insertion
				best = d
			}
			if d := cur + 1; d < best { // deletion
				best = d
			}
			prev = cur
			r[j] = best
		}
	}
	return r[len(b)]
}
