package strdist

// NLD returns the Normalized Levenshtein Distance of Definition 2:
//
//	NLD(x, y) = 2*LD(x, y) / (|x| + |y| + LD(x, y))
//
// NLD is a metric (Theorem 1, after Li & Liu 2007) and ranges over [0, 1]
// (Lemma 2). NLD("", "") is defined as 0.
func NLD(a, b string) float64 {
	return NLDRunes([]rune(a), []rune(b))
}

// NLDRunes is NLD on pre-decoded rune slices.
func NLDRunes(a, b []rune) float64 {
	d := LevenshteinRunes(a, b)
	return NLDFromLD(d, len(a), len(b))
}

// NLDFromLD computes NLD given an already-computed LD and the two string
// lengths. It is the single place the Definition 2 formula lives, so every
// caller normalizes identically.
func NLDFromLD(ld, lenA, lenB int) float64 {
	if ld == 0 {
		return 0
	}
	return 2 * float64(ld) / float64(lenA+lenB+ld)
}

// WithinNLD reports whether a pair with Levenshtein distance ld and lengths
// lenA, lenB satisfies NLD <= t. The comparison is carried out on the
// rearranged integer-weighted form 2*ld <= t*(lenA+lenB+ld) so that all
// join, filter and verification code paths agree on boundary cases.
func WithinNLD(ld, lenA, lenB int, t float64) bool {
	return 2*float64(ld) <= t*float64(lenA+lenB+ld)
}
