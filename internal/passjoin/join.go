package passjoin

// Pair is one joined string pair: indices into the input slice(s) plus the
// exact Levenshtein distance established during verification.
type Pair struct {
	A, B int
	LD   int
}
