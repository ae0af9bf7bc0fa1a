// Package token implements the tokenized-string model of Sec. II-A: a
// tokenizer t(·) mapping a string to a finite multiset of tokens, plus the
// derived quantities the paper's algorithms consume — the token count
// T(x^t), the aggregate token length L(x^t), and per-string token-length
// histograms (used by the TSJ distance-lower-bound filter of Sec. III-E.2).
//
// # Rune arena
//
// Rune data exists once. BuildCorpus decodes each distinct token once into
// one corpus-wide []rune slab: Corpus.TokenRunes[id] is a view into it and
// every string's TokenRunes(i) aliases the view of its token id. Each
// string's Tokens, rune views, length histogram and Members are likewise
// carved out of four corpus-wide arenas; New, the one-string path, decodes
// into one slab per string. BuildCorpus also takes each distinct token's
// character signature (strdist.Sig) once and lays a string's signatures
// right after its length histogram in the histogram arena, where Sigs
// reads them; New signs its own tokens into the same layout. The Corpus
// (or lone TokenizedString) owns its arenas and nothing writes them after
// construction, so workers may read them concurrently — until Release: a
// built corpus's tables and arenas, like the build's own scratch, are
// slabs from the shared free lists of package slab, and Release hands them to
// the next build, so its owner calls it only once nothing reads the
// corpus or anything taken from it. A Corpus grown by
// Add appends whole strings to its tables and never rewrites one already
// there; Add and Forget are the only writers of Freq. Everything handed
// out is a read-only, cap-limited view: callers must not write through
// one, and an append to one reallocates instead of running into its
// neighbour. BuildCorpus token ids are lexicographic: a string's ascending
// id list is its sorted token list.
package token

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/strdist"
)

// TokenizedString is a tokenized string x^t = {x^t1, ..., x^tm}: a finite
// multiset of tokens. Tokens are stored sorted so that two equal multisets
// compare equal element-wise and hashing/keying is deterministic; multiset
// semantics (duplicates allowed) are preserved. Build one with New, a
// Tokenizer or BuildCorpus: a literal lacks the cached histogram and
// signatures.
type TokenizedString struct {
	// Tokens holds the multiset in sorted order.
	Tokens []string
	// runes caches the decoded form of each token, aligned with Tokens.
	runes [][]rune
	// aggLen caches L(x^t) in runes.
	aggLen int
	// lenHist caches the ascending token-length histogram in [:k], so the
	// per-candidate-pair lower-bound filter costs no allocation, and
	// each token's strdist.Sig in [k:], in token order, as an int bit
	// pattern (one slice header for both keeps the struct from growing).
	lenHist []int
}

// New builds a TokenizedString from an arbitrary (unsorted) multiset of
// tokens, signing each token (strdist.Sig) as BuildCorpus does. Empty
// tokens are dropped: per Definition 3 the set-level edit operations add
// and remove empty tokens freely, so a stored ε token never changes any
// SLD/NSLD value.
func New(tokens []string) TokenizedString {
	aggLen := 0
	kept := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if t != "" {
			kept = append(kept, t)
			aggLen += utf8.RuneCountInString(t)
		}
	}
	slices.Sort(kept)
	ts := TokenizedString{
		Tokens:  kept,
		runes:   make([][]rune, len(kept)),
		aggLen:  aggLen,
		lenHist: make([]int, 2*len(kept)), // k lengths, then k signatures
	}
	sigs := ts.lenHist[len(kept):]
	slab := make([]rune, 0, aggLen)
	for i, t := range kept {
		slab, ts.runes[i] = appendRunes(slab, t)
		ts.lenHist[i] = len(ts.runes[i])
		sigs[i] = int(strdist.Sig(ts.runes[i]))
	}
	slices.Sort(ts.lenHist[:len(kept)])
	return ts
}

// appendRunes decodes t onto the end of slab, which must have the
// capacity for it, and returns the grown slab and the cap-limited view of
// the decoded token.
func appendRunes(slab []rune, t string) (grown, view []rune) {
	start := len(slab)
	for _, c := range t {
		slab = append(slab, c)
	}
	return slab, slab[start:len(slab):len(slab)]
}

// The accessors the filters and the verifier call per candidate pair
// take a pointer receiver: called through a *TokenizedString, a value
// receiver copies the whole struct per call.

// Count returns T(x^t), the number of tokens.
func (ts *TokenizedString) Count() int { return len(ts.Tokens) }

// AggregateLen returns L(x^t) = Σ_i |x^ti| in runes.
func (ts *TokenizedString) AggregateLen() int { return ts.aggLen }

// TokenRunes returns the decoded form of token i. The caller must not
// mutate the returned slice.
func (ts *TokenizedString) TokenRunes(i int) []rune { return ts.runes[i] }

// RuneSlices returns the decoded form of every token, aligned with
// Tokens. The caller must not mutate the returned slices.
func (ts *TokenizedString) RuneSlices() [][]rune { return ts.runes }

// String renders the multiset as a space-joined string (tokens are sorted,
// so this is a canonical form).
func (ts TokenizedString) String() string { return strings.Join(ts.Tokens, " ") }

// Key returns a canonical representation usable as a map key. Tokens are
// joined with a unit separator, which the tokenizer never emits inside a
// token.
func (ts TokenizedString) Key() string { return strings.Join(ts.Tokens, "\x1f") }

// Equal reports whether two tokenized strings are the same multiset.
func (ts TokenizedString) Equal(o TokenizedString) bool {
	if len(ts.Tokens) != len(o.Tokens) {
		return false
	}
	for i := range ts.Tokens {
		if ts.Tokens[i] != o.Tokens[i] {
			return false
		}
	}
	return true
}

// LengthHistogram returns the multiset of token lengths in ascending order.
// This is the histogram the TSJ length-based filters ship with each
// tokenized-string identifier (Sec. III-E). The returned slice is the
// cached histogram; the caller must not mutate it.
func (ts *TokenizedString) LengthHistogram() []int {
	return ts.lenHist[:len(ts.Tokens):len(ts.Tokens)]
}

// Sigs returns each token's character signature, int(strdist.Sig) of
// TokenRunes(i), aligned with Tokens: taken once per distinct token by
// BuildCorpus and once per token by New. The caller must not mutate the
// returned slice.
func (ts *TokenizedString) Sigs() []int { return ts.lenHist[len(ts.Tokens):] }

// Tokenizer is a function mapping a raw string to its tokenized form.
type Tokenizer func(string) TokenizedString

// splitter is the one rune scan under the three built-in tokenizers and
// BuildCorpus: a separator predicate plus an optional case fold.
type splitter struct {
	// punct makes every non-letter, non-digit rune a separator; otherwise
	// only Unicode whitespace separates.
	punct bool
	// fold lower-cases tokens rune by rune (unicode.ToLower, as
	// strings.ToLower does).
	fold bool
}

// The ASCII classes of the scan, bits of asciiClass.
const (
	spaceSep = 1 << iota // unicode.IsSpace
	punctSep             // neither unicode.IsLetter nor unicode.IsDigit
)

// asciiClass and asciiLower are the scan's ASCII fast path: each byte
// below utf8.RuneSelf classified and case-folded by the very unicode
// calls the rune path makes, once.
var asciiClass, asciiLower = func() (class, lower [utf8.RuneSelf]byte) {
	for c := range class {
		r := rune(c)
		if unicode.IsSpace(r) {
			class[c] |= spaceSep
		}
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			class[c] |= punctSep
		}
		lower[c] = byte(unicode.ToLower(r))
	}
	return class, lower
}()

// next scans s from pos for the next token and returns its bytes,
// written over buf, with the position just past it. An empty token means
// s is exhausted. ASCII bytes take the table path; everything else is
// decoded. Invalid UTF-8 bytes decode to U+FFFD, which is no letter and
// no space: they separate under punct and are kept verbatim otherwise.
func (sp splitter) next(s string, pos int, buf []byte) ([]byte, int) {
	buf = buf[:0]
	sepClass := byte(spaceSep)
	if sp.punct {
		sepClass = punctSep
	}
	for pos < len(s) {
		if c := s[pos]; c < utf8.RuneSelf {
			switch {
			case asciiClass[c]&sepClass == 0:
				if sp.fold {
					c = asciiLower[c]
				}
				buf = append(buf, c)
			case len(buf) > 0:
				return buf, pos
			}
			pos++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[pos:])
		sep := sp.punct && !unicode.IsLetter(r) && !unicode.IsDigit(r) || !sp.punct && unicode.IsSpace(r)
		switch {
		case sep && len(buf) > 0:
			return buf, pos
		case sep:
		case sp.fold:
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		default:
			buf = append(buf, s[pos:pos+w]...)
		}
		pos += w
	}
	return buf, pos
}

// tokenize is the one-string form of the scan.
func (sp splitter) tokenize(s string) TokenizedString {
	// Stack-backed for ordinary names; New copies what it keeps.
	tokens := make([]string, 0, 8)
	buf := make([]byte, 0, 32)
	for pos := 0; ; {
		buf, pos = sp.next(s, pos, buf)
		if len(buf) == 0 {
			return New(tokens)
		}
		tokens = append(tokens, string(buf))
	}
}

// Whitespace tokenizes on Unicode whitespace only.
func Whitespace(s string) TokenizedString { return splitter{}.tokenize(s) }

// WhitespaceAndPunct is the paper's evaluation tokenizer (Sec. V: "The
// names were tokenized using whitespaces and punctuation characters") with
// case folding: any run of non-letter, non-digit runes separates tokens,
// and tokens are lower-cased so that "Obama" and "obama" compare equal.
func WhitespaceAndPunct(s string) TokenizedString {
	return splitter{punct: true, fold: true}.tokenize(s)
}

// CaseSensitivePunct is WhitespaceAndPunct without case folding, for
// applications where case carries signal.
func CaseSensitivePunct(s string) TokenizedString {
	return splitter{punct: true}.tokenize(s)
}
