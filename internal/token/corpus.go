package token

import (
	"reflect"
	"slices"
	"sync"
	"unicode/utf8"

	"repro/internal/strdist"
)

// StringID identifies a tokenized string within a Corpus. The joining
// pipeline ships IDs (augmented with lengths and histograms) instead of the
// strings themselves, exactly as Sec. III-E prescribes "for efficiency".
type StringID int32

// TokenID identifies a distinct token within a Corpus's token space.
type TokenID int32

// Corpus is a set of tokenized strings R = {r^t_1, ..., r^t_S} together
// with its token space R^t (Sec. III-D): the set of all distinct tokens of
// all tokenized strings, each with the number of strings containing it.
type Corpus struct {
	// Strings holds the tokenized strings, indexed by StringID.
	Strings []TokenizedString
	// Tokens holds the distinct token space, indexed by TokenID, sorted
	// lexicographically for determinism.
	Tokens []string
	// TokenRunes caches the decoded form of each distinct token.
	TokenRunes [][]rune
	// Freq[t] is the number of tokenized strings containing token t at
	// least once (document frequency, used for the max-frequency cutoff M
	// of Sec. III-G.2 and for the IDF weights of the fuzzy set measures).
	Freq []int32
	// Members[s] lists the distinct TokenIDs of string s, in the
	// lexicographic order of their token strings (for BuildCorpus corpora,
	// whose ids are assigned lexicographically, that is also ascending id
	// order).
	Members     [][]TokenID
	tokenID     map[string]TokenID
	tokenIDOnce sync.Once
}

// builtins maps the code pointers of this package's own tokenizers to
// their rune scans, so BuildCorpus can run the scan straight into its
// intern table instead of materializing a TokenizedString per input.
var builtins = map[uintptr]splitter{
	reflect.ValueOf(Whitespace).Pointer():         {},
	reflect.ValueOf(WhitespaceAndPunct).Pointer(): {punct: true, fold: true},
	reflect.ValueOf(CaseSensitivePunct).Pointer(): {punct: true},
}

// corpusBuilder is pass 1 of a corpus build: every token occurrence is
// interned to a provisional first-seen id and appended to one flat
// occurrence list with per-string offsets.
type corpusBuilder struct {
	ids    map[string]TokenID // token -> provisional id
	toks   []string           // provisional id -> token
	occ    []TokenID          // every string's occurrences, back to back
	off    []int32            // string s owns occ[off[s]:off[s+1]]
	nRunes int                // total rune length of toks
}

func newCorpusBuilder(n int) *corpusBuilder {
	return &corpusBuilder{
		ids: make(map[string]TokenID, n),
		occ: make([]TokenID, 0, 4*n),
		off: make([]int32, 1, n+1),
	}
}

// intern gives a token that missed in ids the next provisional id.
func (b *corpusBuilder) intern(tok string) TokenID {
	id := TokenID(len(b.toks))
	b.ids[tok] = id
	b.toks = append(b.toks, tok)
	b.nRunes += utf8.RuneCountInString(tok)
	return id
}

// addTokens records the occurrences of one already-tokenized string.
// Empty tokens are dropped, as New drops them.
func (b *corpusBuilder) addTokens(tokens []string) {
	for _, t := range tokens {
		if t == "" {
			continue
		}
		id, ok := b.ids[t]
		if !ok {
			id = b.intern(t)
		}
		b.occ = append(b.occ, id)
	}
	b.off = append(b.off, int32(len(b.occ)))
}

// BuildCorpus tokenizes raw strings and assembles the corpus and its token
// space. The i-th raw string receives StringID i; token ids are assigned
// in lexicographic order of the tokens. The package's own tokenizers are
// recognised and fused into the build (no per-string TokenizedString is
// made); any other tokenizer is called per string and its Tokens interned.
func BuildCorpus(raw []string, tok Tokenizer) *Corpus {
	b := newCorpusBuilder(len(raw))
	sp, fused := builtins[reflect.ValueOf(tok).Pointer()]
	var buf []byte
	for _, s := range raw {
		if !fused {
			b.addTokens(tok(s).Tokens)
			continue
		}
		for pos := 0; ; {
			buf, pos = sp.next(s, pos, buf)
			if len(buf) == 0 {
				break
			}
			// The lookup converts without allocating; only a miss
			// copies the bytes into a string.
			id, ok := b.ids[string(buf)]
			if !ok {
				id = b.intern(string(buf))
			}
			b.occ = append(b.occ, id)
		}
		b.off = append(b.off, int32(len(b.occ)))
	}
	return b.finish()
}

// BuildCorpusFromTokenized assembles a corpus from already-tokenized
// strings (used by generators that produce token multisets directly).
// Tokens are interned as given — a token may contain whitespace.
func BuildCorpusFromTokenized(strs []TokenizedString) *Corpus {
	b := newCorpusBuilder(len(strs))
	for i := range strs {
		b.addTokens(strs[i].Tokens)
	}
	return b.finish()
}

// finish runs passes 2 and 3. Pass 2 sorts the distinct tokens into their
// final lexicographic ids, decodes each once into the rune slab and takes
// its character signature (strdist.Sig) once. Pass 3 rewrites every
// string's occurrences to final ids, sorts them, and carves the string's
// Tokens, rune views and length histogram plus signatures out of
// corpus-wide arenas; the occurrence list itself becomes the Members arena
// (the dedup walk compacts each string's region in place) and Freq falls
// out of it.
func (b *corpusBuilder) finish() *Corpus {
	nStr, nTok := len(b.off)-1, len(b.toks)
	c := &Corpus{
		Strings:    make([]TokenizedString, nStr),
		Tokens:     b.toks, // sorted in place: ids holds the provisional order
		TokenRunes: make([][]rune, nTok),
		Freq:       make([]int32, nTok),
		Members:    make([][]TokenID, nStr),
	}
	slices.Sort(c.Tokens)
	final := make([]TokenID, nTok) // provisional id -> final id
	sig := make([]int, nTok)
	slab := make([]rune, 0, b.nRunes)
	for id, t := range c.Tokens {
		final[b.ids[t]] = TokenID(id)
		slab, c.TokenRunes[id] = appendRunes(slab, t)
		sig[id] = int(strdist.Sig(c.TokenRunes[id]))
	}

	tokArena := make([]string, len(b.occ))
	viewArena := make([][]rune, len(b.occ))
	histArena := make([]int, 2*len(b.occ)) // per string: k lengths, then k signatures
	for s := range c.Strings {
		lo, hi := int(b.off[s]), int(b.off[s+1])
		ids := b.occ[lo:hi]
		for k, prov := range ids {
			ids[k] = final[prov]
		}
		slices.Sort(ids)
		ts := TokenizedString{
			Tokens:  tokArena[lo:hi:hi],
			runes:   viewArena[lo:hi:hi],
			lenHist: histArena[2*lo : 2*hi : 2*hi],
		}
		sigs := ts.lenHist[hi-lo:]
		distinct := 0
		for k, id := range ids {
			r := c.TokenRunes[id]
			ts.Tokens[k] = c.Tokens[id]
			ts.runes[k] = r
			ts.lenHist[k] = len(r)
			sigs[k] = sig[id]
			ts.aggLen += len(r)
			if k == 0 || id != ids[k-1] {
				ids[distinct] = id // distinct <= k: writes trail reads
				distinct++
				c.Freq[id]++
			}
		}
		slices.Sort(ts.lenHist[:hi-lo])
		c.Strings[s] = ts
		c.Members[s] = ids[:distinct:distinct]
	}
	return c
}

// NewCorpusView assembles a Corpus from externally maintained state (the
// persistent corpus of internal/corpus exposes its token space this way so
// the batch joiner can run on it without rebuilding anything). Unlike
// BuildCorpus, token ids follow the caller's interning order rather than
// lexicographic order; members[s] must hold string s's distinct TokenIDs
// in the lexicographic order of their token strings — the invariant
// consumers of Members actually rely on (the id-expansion walk advances a
// distinct cursor whenever the sorted token changes), and the one
// BuildCorpus's lexicographic ids provide for free. The intern map is
// built lazily on the first TokenIDOf call, so views captured per join
// never pay for it (the join pipeline works on ids throughout).
func NewCorpusView(strings []TokenizedString, tokens []string, tokenRunes [][]rune, freq []int32, members [][]TokenID) *Corpus {
	return &Corpus{
		Strings:    strings,
		Tokens:     tokens,
		TokenRunes: tokenRunes,
		Freq:       freq,
		Members:    members,
	}
}

// TokenIDOf returns the TokenID for a token string, if present. Safe for
// concurrent use (the lazy intern-map build is synchronized).
func (c *Corpus) TokenIDOf(t string) (TokenID, bool) {
	c.tokenIDOnce.Do(func() {
		m := make(map[string]TokenID, len(c.Tokens))
		for id, tok := range c.Tokens {
			m[tok] = TokenID(id)
		}
		c.tokenID = m
	})
	id, ok := c.tokenID[t]
	return id, ok
}

// NumStrings returns |R|.
func (c *Corpus) NumStrings() int { return len(c.Strings) }

// NumTokens returns |R^t|, the distinct token-space size.
func (c *Corpus) NumTokens() int { return len(c.Tokens) }

// TotalPairs returns the number of unordered string pairs |R|*(|R|-1)/2 the
// self-join would naively compare (the paper quotes 1.967e15 for its 44.4M
// names).
func (c *Corpus) TotalPairs() float64 {
	n := float64(len(c.Strings))
	return n * (n - 1) / 2
}
