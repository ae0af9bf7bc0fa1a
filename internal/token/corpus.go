package token

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/radix"
	"repro/internal/slab"
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
//
// A Corpus is either built in one go (BuildCorpus, whose token ids are
// lexicographic) or grown one string at a time (the zero Corpus or
// NewCorpus, then Add, whose token ids are first-seen). Either way it only
// ever grows: Add appends a string, Forget uncounts one, Grow reserves
// room, and nothing else writes the corpus, so a View's tables stay valid
// while its base grows. A built corpus's tables are on loan from package
// slab's free lists until its owner calls Release.
type Corpus struct {
	// Strings holds the tokenized strings, indexed by StringID.
	Strings []TokenizedString
	// Tokens holds the distinct token space, indexed by TokenID.
	Tokens []string
	// TokenRunes caches the decoded form of each distinct token.
	TokenRunes [][]rune
	// Freq[t] is the number of tokenized strings containing token t at
	// least once (document frequency, used for the max-frequency cutoff M
	// of Sec. III-G.2 and for the IDF weights of the fuzzy set measures),
	// over the strings added and not forgotten.
	Freq []int32
	// Members[s] lists the distinct TokenIDs of string s in the
	// lexicographic order of their token strings, whichever order the ids
	// themselves follow (with BuildCorpus's lexicographic ids it is also
	// ascending id order). Consumers rely on exactly this: the
	// id-expansion walk advances a distinct cursor whenever the sorted
	// token changes.
	Members     [][]TokenID
	tokenID     map[string]TokenID
	tokenIDOnce sync.Once
	// base is the corpus this one is a View of, and shared the number of
	// tokens base had then: those are looked up in base's intern map, and
	// tokenID holds only the tokens new to the view.
	base   *Corpus
	shared int
	// arenas are the slabs a build took its tables from (nil for a
	// corpus Add grew from empty, or a View), which Release gives back.
	arenas *slab.Loans
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
// occurrence list with per-string offsets. Its map and tables come from
// package slab. occ, which becomes the Members arena, is on loan to the
// corpus; the rest is scratch and goes back when the build returns.
type corpusBuilder struct {
	ids     map[string]TokenID // token -> provisional id
	toks    []string           // provisional id -> token
	occ     []TokenID          // every string's occurrences, back to back
	off     []int32            // string s owns occ[off[s]:off[s+1]]
	nRunes  int                // total rune length of toks
	arenas  *slab.Loans        // the corpus's tables
	scratch slab.Loans         // the build's own
}

func newCorpusBuilder(n int) *corpusBuilder {
	b := &corpusBuilder{arenas: new(slab.Loans)}
	b.ids = slab.Map[string, TokenID](&b.scratch, n)
	slab.Lend(&b.scratch, &b.toks, n)
	slab.Lend(b.arenas, &b.occ, 4*n)
	b.off = append(slab.Take[int32](&b.scratch, n+1)[:0], 0)
	return b
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
// The corpus's tables are slabs: an owner done with it may Release it for
// the next build to reuse, and one never released is collected as usual.
func BuildCorpus(raw []string, tok Tokenizer) *Corpus {
	b := newCorpusBuilder(len(raw))
	sp, fused := builtins[reflect.ValueOf(tok).Pointer()]
	var buf []byte
	slab.Lend(&b.scratch, &buf, 64)
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
// final lexicographic ids (lexOrder), decodes each once into the rune
// slab and takes its character signature (strdist.Sig) once. Pass 3
// rewrites every string's occurrences to final ids, sorts them, and carves
// the string's Tokens, rune views and length histogram plus signatures
// out of corpus-wide arenas; the occurrence list itself becomes the
// Members arena (the dedup walk compacts each string's region in place)
// and Freq falls out of it. Every table is a slab: the corpus's go back
// on Release, the build's scratch before finish returns.
func (b *corpusBuilder) finish() *Corpus {
	defer b.scratch.Return()
	nStr, nTok := len(b.off)-1, len(b.toks)
	a, scratch := b.arenas, &b.scratch
	c := &Corpus{arenas: a}
	c.Strings = slab.Take[TokenizedString](a, nStr)
	c.Tokens = slab.Take[string](a, nTok)
	c.TokenRunes = slab.Take[[]rune](a, nTok)
	c.Freq = slab.Take[int32](a, nTok)
	clear(c.Freq)
	c.Members = slab.Take[[]TokenID](a, nStr)
	final := slab.Take[TokenID](scratch, nTok) // provisional id -> final id
	sig := slab.Take[int](scratch, nTok)
	runes := slab.Take[rune](a, b.nRunes)[:0]
	for id, e := range lexOrder(b.toks, scratch) {
		t := b.toks[e.Val]
		c.Tokens[id] = t
		final[e.Val] = TokenID(id)
		runes, c.TokenRunes[id] = appendRunes(runes, t)
		sig[id] = int(strdist.Sig(c.TokenRunes[id]))
	}

	tokArena := slab.Take[string](a, len(b.occ))
	viewArena := slab.Take[[]rune](a, len(b.occ))
	histArena := slab.Take[int](a, 2*len(b.occ)) // per string: k lengths, then k signatures
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

// lexOrder returns the indexes of toks (as Val) in lexicographic order of
// the tokens: a radix sort on each token's first 8 bytes, big-endian and
// zero-padded, then strings.Compare within each run of equal keys. Keys
// that differ order their tokens as strings.Compare does, since a pad
// byte is no greater than any real byte; keys tie for tokens that share
// their first 8 bytes, or that differ only by trailing NUL bytes. The
// sort's two buffers are slabs on loan to scratch.
func lexOrder(toks []string, scratch *slab.Loans) []radix.Entry {
	ents := slab.Take[radix.Entry](scratch, len(toks))
	for i, t := range toks {
		var key [8]byte
		copy(key[:], t)
		ents[i] = radix.Entry{Key: binary.BigEndian.Uint64(key[:]), Val: uint64(i)}
	}
	ents, _ = radix.Sort(ents, slab.Take[radix.Entry](scratch, len(ents)))
	byToken := func(x, y radix.Entry) int { return strings.Compare(toks[x.Val], toks[y.Val]) }
	for lo, hi := 0, 0; lo < len(ents); lo = hi {
		for hi = lo + 1; hi < len(ents) && ents[hi].Key == ents[lo].Key; hi++ {
		}
		slices.SortFunc(ents[lo:hi], byToken)
	}
	return ents
}

// Release gives a built corpus's tables back to package slab, where the
// next build reuses them, and nils them, so a use after Release indexes an
// empty table and panics instead of reading another build's data. Only the
// corpus's owner calls it, once nothing reads the corpus: no View of it,
// and no TokenizedString, rune view or member list taken from it, may
// still be alive. A second call does nothing, as does a call on a corpus
// that was not built (NewCorpus, the zero Corpus, a View).
func (c *Corpus) Release() {
	if c.arenas == nil {
		return
	}
	c.arenas.Return()
	c.arenas = nil
	c.Strings, c.Tokens, c.TokenRunes, c.Freq, c.Members, c.tokenID = nil, nil, nil, nil, nil, nil
}

// NewCorpus returns a corpus with no strings over the token space tokens,
// token i getting id i, and its intern map built. It fails if a token is
// listed twice. The zero Corpus is the empty one.
func NewCorpus(tokens []string) (*Corpus, error) {
	n := len(tokens)
	c := &Corpus{Tokens: tokens[:n:n], TokenRunes: make([][]rune, n), Freq: make([]int32, n)}
	for id, t := range tokens {
		c.TokenRunes[id] = []rune(t)
	}
	c.tokenIDOnce.Do(c.index)
	if len(c.tokenID) != n {
		return nil, fmt.Errorf("token: the token space lists %d tokens, %d of them distinct", n, len(c.tokenID))
	}
	return c, nil
}

// index builds the intern map over the tokens not shared with a base.
func (c *Corpus) index() {
	c.tokenID = make(map[string]TokenID, len(c.Tokens)-c.shared)
	for id := c.shared; id < len(c.Tokens); id++ {
		c.tokenID[c.Tokens[id]] = TokenID(id)
	}
}

// Add appends ts as the next string and returns its id. Tokens new to the
// corpus are interned at the tail of the token space in first-seen order,
// their TokenRunes sharing ts's decoded runes;
// ts's distinct tokens become its Members, in its (lexicographic) token
// order, and each is counted once in Freq. Add, Grow and Forget are not
// safe for concurrent use with any other method.
func (c *Corpus) Add(ts TokenizedString) StringID {
	mem := make([]TokenID, 0, ts.Count())
	for i, t := range ts.Tokens {
		if i > 0 && t == ts.Tokens[i-1] {
			continue
		}
		id, ok := c.TokenIDOf(t)
		if !ok {
			id = TokenID(len(c.Tokens))
			c.tokenID[t] = id
			c.Tokens = append(c.Tokens, t)
			c.TokenRunes = append(c.TokenRunes, ts.TokenRunes(i))
			c.Freq = append(c.Freq, 0)
		}
		c.Freq[id]++
		mem = append(mem, id)
	}
	c.Strings = append(c.Strings, ts)
	c.Members = append(c.Members, mem)
	return StringID(len(c.Strings) - 1)
}

// Grow copies the string and member tables once into room for exactly n
// more strings, so the next n Adds append in place.
func (c *Corpus) Grow(n int) {
	c.Strings = append(make([]TokenizedString, 0, len(c.Strings)+n), c.Strings...)
	c.Members = append(make([][]TokenID, 0, len(c.Members)+n), c.Members...)
}

// Forget uncounts string sid from Freq: a deleted string keeps its id, its
// tokens and its Members, and stops counting. Forgetting a string twice
// is the caller's error.
func (c *Corpus) Forget(sid StringID) {
	for _, id := range c.Members[sid] {
		c.Freq[id]--
	}
}

// View returns a point-in-time copy of the corpus that shares its tables
// at capped capacity and copies Freq, so later Adds and Forgets on either
// side never reach the other: an Add to the view reallocates the tables
// it grows. The view looks the tokens it shares with c up in c's intern
// map and interns only its own new ones, so it builds no map over the
// whole token space; its lookups and Adds must not run while c is written.
func (c *Corpus) View() *Corpus {
	n, nt := len(c.Strings), len(c.Tokens)
	return &Corpus{
		Strings:    c.Strings[:n:n],
		Tokens:     c.Tokens[:nt:nt],
		TokenRunes: c.TokenRunes[:nt:nt],
		Freq:       slices.Clone(c.Freq),
		Members:    c.Members[:n:n],
		base:       c,
		shared:     nt,
	}
}

// TokenIDOf returns the TokenID for a token string, if present. Safe for
// concurrent use with itself (the lazy intern-map build is synchronized).
func (c *Corpus) TokenIDOf(t string) (TokenID, bool) {
	c.tokenIDOnce.Do(c.index)
	if id, ok := c.tokenID[t]; ok || c.base == nil {
		return id, ok
	}
	if id, ok := c.base.TokenIDOf(t); ok && int(id) < c.shared {
		return id, true
	}
	return 0, false
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
