package token

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/namegen"
	"repro/internal/strdist"
)

// The ref* functions are the tokenizers, New and BuildCorpus as they
// stood before the rune arena, kept verbatim as the oracle for
// TestBuildCorpusMatchesReference: FieldsFunc + ToLower, one []rune per
// token occurrence, a second decode per distinct token, two maps over the
// token space and a seen map per string.

type refString struct {
	Tokens  []string
	runes   [][]rune
	aggLen  int
	lenHist []int
}

func refNew(tokens []string) refString {
	kept := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if t != "" {
			kept = append(kept, t)
		}
	}
	sort.Strings(kept)
	ts := refString{Tokens: kept}
	ts.runes = make([][]rune, len(ts.Tokens))
	ts.lenHist = make([]int, len(ts.Tokens))
	for i, t := range ts.Tokens {
		r := []rune(t)
		ts.runes[i] = r
		ts.aggLen += len(r)
		ts.lenHist[i] = len(r)
	}
	sort.Ints(ts.lenHist)
	return ts
}

func refWhitespace(s string) refString { return refNew(strings.Fields(s)) }

func refWhitespaceAndPunct(s string) refString {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for i, f := range fields {
		fields[i] = strings.ToLower(f)
	}
	return refNew(fields)
}

func refCaseSensitivePunct(s string) refString {
	return refNew(strings.FieldsFunc(s, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	}))
}

type refCorpus struct {
	Strings    []refString
	Tokens     []string
	TokenRunes [][]rune
	Freq       []int32
	Members    [][]TokenID
	tokenID    map[string]TokenID
}

func refBuildCorpus(raw []string, tok func(string) refString) *refCorpus {
	c := &refCorpus{
		Strings: make([]refString, len(raw)),
		tokenID: make(map[string]TokenID),
	}
	// First pass: tokenize and collect the distinct token space.
	distinct := make(map[string]struct{})
	for i, s := range raw {
		c.Strings[i] = tok(s)
		for _, t := range c.Strings[i].Tokens {
			distinct[t] = struct{}{}
		}
	}
	c.Tokens = make([]string, 0, len(distinct))
	for t := range distinct {
		c.Tokens = append(c.Tokens, t)
	}
	sort.Strings(c.Tokens)
	c.TokenRunes = make([][]rune, len(c.Tokens))
	for id, t := range c.Tokens {
		c.tokenID[t] = TokenID(id)
		c.TokenRunes[id] = []rune(t)
	}
	// Second pass: membership lists and document frequencies.
	c.Freq = make([]int32, len(c.Tokens))
	c.Members = make([][]TokenID, len(c.Strings))
	for i, ts := range c.Strings {
		seen := make(map[TokenID]struct{}, len(ts.Tokens))
		ids := make([]TokenID, 0, len(ts.Tokens))
		for _, t := range ts.Tokens {
			id := c.tokenID[t]
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			ids = append(ids, id)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		c.Members[i] = ids
		for _, id := range ids {
			c.Freq[id]++
		}
	}
	return c
}

// commaTokenizer is the custom (non-built-in) tokenizer of the tests:
// comma-separated fields, trimmed, so a token can contain whitespace.
func commaTokenizer(s string) TokenizedString {
	fields := strings.Split(s, ",")
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return New(fields)
}

func refCommaTokenizer(s string) refString {
	fields := strings.Split(s, ",")
	for i, f := range fields {
		fields[i] = strings.TrimSpace(f)
	}
	return refNew(fields)
}

// adversarialInputs are the shapes a name corpus does not contain. They
// cover every ASCII byte inside a token and as a separator (the scan's
// table path), tokens that tie on the 8-byte radix key of the token-id
// sort, and NUL-bearing tokens, which Whitespace keeps whole.
func adversarialInputs() []string {
	var ascii []string
	all := make([]byte, utf8.RuneSelf)
	for c := range all {
		all[c] = byte(c)
		ascii = append(ascii, fmt.Sprintf("x%cY %c Q%c", c, c, c))
	}
	ascii = append(ascii, string(all), "Z"+string(all)+"z")
	return append(ascii,
		"abcdefgh abcdefghi abcdefgh\x00 abcdefgz",
		"abcdefgz abcdefgh\x00 ABCDEFGHI abcdefgh\x00\x00 abcdefg abcdefgh\xff",
		"\x00 a\x00 \x00a a\x00b \x00\x00 a",
		"a\x00\x00\x00\x00\x00\x00\x00x a\x00\x00\x00\x00\x00\x00\x00 a\x00\x00\x00\x00\x00\x00",
		"",
		"   ",
		"...,,; --",
		"bo bo bo",
		"Bo bo BO, bo",
		"x2 2x 42 007 x2",
		"Zoë Łukasz Ángel ß ǅ",
		"İstanbul ȺȾ KelvinK ẞ", // lower case changes byte length
		"smile \U0001F600 a\U0001F600b \U00010348", // astral plane
		"bad\xffbyte \xc3( tail\xf0\x9f",           // invalid UTF-8
		"a\vb\fc d\u0085e\u00a0f\u2003g\u200bh",    // whitespace beyond ASCII (and U+200B, which is none)
		"名前 テスト 名前",
		strings.Repeat("Ab3é", 17)+"xy tail", // a 70-rune token
		"van der Berg, de la Cruz ,, van der Berg",
		"� replacement �char",
		"a", "A", "a a", "a,A",
	)
}

func sameRuneViews(a, b [][]rune) bool {
	return slices.EqualFunc(a, b, func(x, y []rune) bool { return slices.Equal(x, y) })
}

// compareCorpus checks every observable of a built corpus against the
// reference build of the same inputs.
func compareCorpus(t *testing.T, got *Corpus, want *refCorpus) {
	t.Helper()
	if !slices.Equal(got.Tokens, want.Tokens) {
		t.Fatalf("Tokens differ:\n got %q\nwant %q", got.Tokens, want.Tokens)
	}
	if !sameRuneViews(got.TokenRunes, want.TokenRunes) {
		t.Fatal("TokenRunes differ")
	}
	if !slices.Equal(got.Freq, want.Freq) {
		t.Fatalf("Freq differ:\n got %v\nwant %v", got.Freq, want.Freq)
	}
	if got.NumStrings() != len(want.Strings) || got.NumTokens() != len(want.Tokens) {
		t.Fatalf("sizes: %d strings %d tokens, want %d and %d",
			got.NumStrings(), got.NumTokens(), len(want.Strings), len(want.Tokens))
	}
	for id, tok := range want.Tokens {
		if gid, ok := got.TokenIDOf(tok); !ok || gid != TokenID(id) {
			t.Fatalf("TokenIDOf(%q) = %d, %v; want %d", tok, gid, ok, id)
		}
	}
	if _, ok := got.TokenIDOf("no such token \x00"); ok {
		t.Fatal("TokenIDOf found a token that is not there")
	}
	for s := range want.Strings {
		g, w := &got.Strings[s], &want.Strings[s]
		if !slices.Equal(got.Members[s], want.Members[s]) {
			t.Fatalf("string %d: Members %v, want %v", s, got.Members[s], want.Members[s])
		}
		if !slices.Equal(g.Tokens, w.Tokens) {
			t.Fatalf("string %d: Tokens %q, want %q", s, g.Tokens, w.Tokens)
		}
		if g.Count() != len(w.Tokens) || g.AggregateLen() != w.aggLen {
			t.Fatalf("string %d %q: count/agglen %d/%d, want %d/%d", s, w.Tokens,
				g.Count(), g.AggregateLen(), len(w.Tokens), w.aggLen)
		}
		if !sameRuneViews(g.RuneSlices(), w.runes) {
			t.Fatalf("string %d %q: rune views differ", s, w.Tokens)
		}
		for i := range w.runes {
			if !slices.Equal(g.TokenRunes(i), w.runes[i]) {
				t.Fatalf("string %d: TokenRunes(%d) differs", s, i)
			}
		}
		if h := g.LengthHistogram(); !slices.Equal(h, w.lenHist) || cap(h) != len(h) {
			t.Fatalf("string %d: LengthHistogram %v (cap %d), want %v cap-limited", s, h, cap(h), w.lenHist)
		}
		if len(g.Sigs()) != len(w.runes) {
			t.Fatalf("string %d: %d stored signatures for %d tokens", s, len(g.Sigs()), len(w.runes))
		}
		for i, sig := range g.Sigs() {
			if want := int(strdist.Sig(w.runes[i])); sig != want {
				t.Fatalf("string %d: Sigs()[%d] = %#x, want strdist.Sig = %#x", s, i, sig, want)
			}
		}
		if wantKey := strings.Join(w.Tokens, "\x1f"); g.Key() != wantKey {
			t.Fatalf("string %d: Key %q, want %q", s, g.Key(), wantKey)
		}
	}
}

// TestBuildCorpusMatchesReference: the arena build is observably the
// build it replaced — token space, ids, frequencies, members and every
// per-string cache — for the three built-in tokenizers (fused scan) and
// a custom one (called per string), and each built-in tokenizer alone
// equals its FieldsFunc/ToLower predecessor string by string. Every
// corpus string also stores each token's strdist.Sig, and the one-string
// tokenizers (New) store the very same signatures.
func TestBuildCorpusMatchesReference(t *testing.T) {
	inputs := append(namegen.Generate(namegen.Config{Seed: 21, NumNames: 1500}), adversarialInputs()...)
	for _, tc := range []struct {
		name string
		tok  Tokenizer
		ref  func(string) refString
	}{
		{"Whitespace", Whitespace, refWhitespace},
		{"WhitespaceAndPunct", WhitespaceAndPunct, refWhitespaceAndPunct},
		{"CaseSensitivePunct", CaseSensitivePunct, refCaseSensitivePunct},
		{"custom", commaTokenizer, refCommaTokenizer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := refBuildCorpus(inputs, tc.ref)
			got := BuildCorpus(inputs, tc.tok)
			compareCorpus(t, got, want)
			for s, in := range inputs {
				one, w := tc.tok(in), want.Strings[s]
				if !slices.Equal(one.Tokens, w.Tokens) || !sameRuneViews(one.RuneSlices(), w.runes) ||
					!slices.Equal(one.LengthHistogram(), w.lenHist) ||
					one.AggregateLen() != w.aggLen {
					t.Fatalf("%s(%q) = %q, reference %q", tc.name, in, one.Tokens, w.Tokens)
				}
				if !slices.Equal(one.Sigs(), got.Strings[s].Sigs()) {
					t.Fatalf("%s(%q): New signatures %x, BuildCorpus %x", tc.name, in, one.Sigs(), got.Strings[s].Sigs())
				}
				if !one.Equal(got.Strings[s]) {
					t.Fatalf("fused scan of %q gave %q, tokenizer %q", in, got.Strings[s].Tokens, one.Tokens)
				}
			}
			// A wrapped built-in is not recognised and takes the per-string
			// route; the corpus must not depend on which route built it.
			wrapped := BuildCorpus(inputs, func(s string) TokenizedString { return tc.tok(s) })
			compareCorpus(t, wrapped, want)
		})
	}
}

// corpusState is a deep copy of a corpus's tables, for checking that
// later writes elsewhere leave them alone.
type corpusState struct {
	strings [][]string
	tokens  []string
	runes   []string
	freq    []int32
	members [][]TokenID
}

func stateOf(c *Corpus) corpusState {
	st := corpusState{tokens: slices.Clone(c.Tokens), freq: slices.Clone(c.Freq)}
	for _, r := range c.TokenRunes {
		st.runes = append(st.runes, string(r))
	}
	for s := range c.Strings {
		st.strings = append(st.strings, slices.Clone(c.Strings[s].Tokens))
		st.members = append(st.members, slices.Clone(c.Members[s]))
	}
	return st
}

// TestCorpusAddMatchesReference: a corpus grown string by string with Add
// is the reference build of the same inputs up to the token-id
// permutation (first-seen ids instead of lexicographic ones): the same
// strings, the same token space and runes, the same frequency per token,
// and the same members read as token strings, in lexicographic order.
// Forget uncounts exactly a string's distinct tokens, a View is untouched
// by later Adds and Forgets on its base, and an Add to a view (a probe
// join over a corpus view) leaves the base's tables, frequencies and
// intern map alone.
func TestCorpusAddMatchesReference(t *testing.T) {
	inputs := append(namegen.Generate(namegen.Config{Seed: 23, NumNames: 1200}), adversarialInputs()...)
	for _, tc := range []struct {
		name string
		tok  Tokenizer
		ref  func(string) refString
	}{
		{"Whitespace", Whitespace, refWhitespace},
		{"WhitespaceAndPunct", WhitespaceAndPunct, refWhitespaceAndPunct},
		{"custom", commaTokenizer, refCommaTokenizer},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := refBuildCorpus(inputs, tc.ref)
			var got Corpus
			for s, in := range inputs {
				if sid := got.Add(tc.tok(in)); sid != StringID(s) {
					t.Fatalf("Add of string %d returned id %d", s, sid)
				}
			}
			if got.NumStrings() != len(want.Strings) || got.NumTokens() != len(want.Tokens) ||
				len(got.TokenRunes) != len(want.Tokens) || len(got.Freq) != len(want.Tokens) {
				t.Fatalf("%d strings, %d tokens, %d rune views, %d frequencies; want %d strings and %d tokens",
					got.NumStrings(), got.NumTokens(), len(got.TokenRunes), len(got.Freq), len(want.Strings), len(want.Tokens))
			}
			for gid, tok := range got.Tokens {
				wid, ok := want.tokenID[tok]
				if !ok {
					t.Fatalf("token %q is not in the reference token space", tok)
				}
				if id, ok := got.TokenIDOf(tok); !ok || id != TokenID(gid) {
					t.Fatalf("TokenIDOf(%q) = %d, %v; want %d", tok, id, ok, gid)
				}
				if got.Freq[gid] != want.Freq[wid] || !slices.Equal(got.TokenRunes[gid], want.TokenRunes[wid]) {
					t.Fatalf("token %q: Freq %d, runes %q; want %d and %q", tok, got.Freq[gid], string(got.TokenRunes[gid]), want.Freq[wid], string(want.TokenRunes[wid]))
				}
			}
			asTokens := func(tokens []string, ids []TokenID) []string {
				out := make([]string, len(ids))
				for i, id := range ids {
					out[i] = tokens[id]
				}
				return out
			}
			for s := range want.Strings {
				if !slices.Equal(got.Strings[s].Tokens, want.Strings[s].Tokens) {
					t.Fatalf("string %d: Tokens %q, want %q", s, got.Strings[s].Tokens, want.Strings[s].Tokens)
				}
				// The reference's ascending ids are lexicographic.
				if g, w := asTokens(got.Tokens, got.Members[s]), asTokens(want.Tokens, want.Members[s]); !slices.Equal(g, w) {
					t.Fatalf("string %d: Members as tokens %q, want %q", s, g, w)
				}
			}

			// Forget uncounts exactly the string's distinct tokens.
			for _, s := range []int{0, len(inputs) - 1, len(inputs) - 16} { // a name, "a,A", "bo bo bo"
				before := slices.Clone(got.Freq)
				got.Forget(StringID(s))
				for id := range before {
					d := before[id] - got.Freq[id]
					if d != 0 && (d != 1 || !slices.Contains(got.Members[s], TokenID(id))) ||
						d == 0 && slices.Contains(got.Members[s], TokenID(id)) {
						t.Fatalf("Forget(%d) of %q moved Freq[%q] by %d", s, got.Strings[s].Tokens, got.Tokens[id], -d)
					}
				}
			}

			// A view is untouched by its base's later Adds and Forgets.
			view := got.View()
			frozen := stateOf(view)
			for _, in := range []string{"zz-new-token alpha", "bo bo", "qq, rr"} {
				got.Add(tc.tok(in))
			}
			got.Forget(1)
			if !reflect.DeepEqual(stateOf(view), frozen) {
				t.Fatal("a view changed under its base's Add and Forget")
			}

			// An Add to a view leaves its base alone: tables, frequencies
			// and intern map, whether or not the view was grown first (as
			// a probe join grows it).
			for _, grow := range []bool{false, true} {
				base := stateOf(&got)
				nt := got.NumTokens()
				view = got.View()
				if grow {
					view.Grow(2)
				}
				sid := view.Add(tc.tok("probe-only-token, " + inputs[5]))
				view.Add(tc.tok(fmt.Sprintf("second probe-only token %v", grow)))
				if int(sid) != got.NumStrings() || view.NumTokens() <= nt {
					t.Fatalf("view Add gave id %d and %d tokens over a base of %d strings and %d tokens", sid, view.NumTokens(), got.NumStrings(), nt)
				}
				if !reflect.DeepEqual(stateOf(&got), base) || len(got.tokenID) != nt {
					t.Fatal("an Add to a view changed its base")
				}
				for _, tok := range view.Tokens[nt:] {
					if _, ok := got.TokenIDOf(tok); ok {
						t.Fatalf("a view's token %q reached its base's intern map", tok)
					}
				}
				// The base grows on past the view without writing into it.
				grown := stateOf(view)
				got.Add(tc.tok(fmt.Sprintf("xbase%v", grow)))
				if !reflect.DeepEqual(stateOf(view), grown) {
					t.Fatal("a base Add changed a view grown by Add")
				}
				if id, _ := got.TokenIDOf(fmt.Sprintf("xbase%v", grow)); id != TokenID(nt) {
					t.Fatalf("the base's next token got id %d, want %d", id, nt)
				}
			}
		})
	}
}

// TestBuildCorpusFromTokenizedKeepsTokens: tokens are interned as given.
// Rendering each string and re-splitting it on whitespace, as the builder
// once did, cut "van der" in two.
func TestBuildCorpusFromTokenizedKeepsTokens(t *testing.T) {
	strs := []TokenizedString{
		New([]string{"van der", "berg"}),
		New([]string{"berg", "van", "der"}),
		New([]string{"van der", "van der", "", "x y z"}),
		New(nil),
	}
	c := BuildCorpusFromTokenized(strs)
	if want := []string{"berg", "der", "van", "van der", "x y z"}; !slices.Equal(c.Tokens, want) {
		t.Fatalf("token space %q, want %q", c.Tokens, want)
	}
	for s := range strs {
		if !c.Strings[s].Equal(strs[s]) {
			t.Fatalf("string %d: %q, want %q", s, c.Strings[s].Tokens, strs[s].Tokens)
		}
	}
	id, _ := c.TokenIDOf("van der")
	if c.Freq[id] != 2 || !slices.Equal(c.Members[2], []TokenID{id, id + 1}) {
		t.Fatalf("Freq[van der] = %d, Members[2] = %v", c.Freq[id], c.Members[2])
	}
	want := refBuildCorpus([]string{"van der,berg", "berg,van,der", "van der,van der,,x y z", ""}, refCommaTokenizer)
	compareCorpus(t, c, want)
}

// TestCorpusViewsAreCapLimited: everything a corpus hands out is a view
// into a shared arena; an append to one must reallocate rather than
// write over the neighbouring view.
func TestCorpusViewsAreCapLimited(t *testing.T) {
	inputs := []string{"alpha beta gamma", "beta beta delta", "epsilon alpha"}
	c := BuildCorpus(inputs, WhitespaceAndPunct)
	want := refBuildCorpus(inputs, refWhitespaceAndPunct)
	for id := range c.TokenRunes {
		_ = append(c.TokenRunes[id], 'X')
	}
	for s := range c.Strings {
		ts := &c.Strings[s]
		for i := 0; i < ts.Count(); i++ {
			_ = append(ts.TokenRunes(i), 'Y')
		}
		_ = append(ts.RuneSlices(), []rune("zz"))
		_ = append(ts.Tokens, "zz")
		_ = append(ts.LengthHistogram(), 99)
		_ = append(c.Members[s], 99)
	}
	compareCorpus(t, c, want)

	one := New([]string{"alpha", "beta"})
	_ = append(one.TokenRunes(0), 'Z')
	if got := string(one.TokenRunes(1)); got != "beta" {
		t.Fatalf("append to token 0's runes reached token 1: %q", got)
	}
}

// TestBuildCorpusAllocations: the build allocates one string per
// distinct token plus a bounded number of corpus-wide tables — nothing
// per input string and nothing per token occurrence.
func TestBuildCorpusAllocations(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 2000})
	var c *Corpus
	allocs := testing.AllocsPerRun(5, func() { c = BuildCorpus(names, WhitespaceAndPunct) })
	if limit := float64(c.NumTokens() + 100); allocs > limit {
		t.Fatalf("BuildCorpus of %d names allocates %.0f objects, want at most %.0f (%d distinct tokens + 100)",
			len(names), allocs, limit, c.NumTokens())
	}
}

func BenchmarkBuildCorpus(b *testing.B) {
	names := namegen.Generate(namegen.Config{Seed: 3, NumNames: 8000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := BuildCorpus(names, WhitespaceAndPunct); c.NumStrings() != len(names) {
			b.Fatal(fmt.Sprint("built ", c.NumStrings(), " strings"))
		}
	}
}

func TestBuiltinTokenizersAreRecognised(t *testing.T) {
	for _, tok := range []Tokenizer{Whitespace, WhitespaceAndPunct, CaseSensitivePunct} {
		if _, ok := builtins[reflect.ValueOf(tok).Pointer()]; !ok {
			t.Fatal("a built-in tokenizer missed the fused scan")
		}
	}
	if _, ok := builtins[reflect.ValueOf(Tokenizer(commaTokenizer)).Pointer()]; ok {
		t.Fatal("a custom tokenizer was taken for a built-in")
	}
}
