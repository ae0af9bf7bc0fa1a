package token

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/namegen"
	"repro/internal/slab"
)

// TestBuildCorpusRecycledMatchesFresh: a build on the slabs of a released
// one — larger, smaller or of another shape — is the reference build of
// its own inputs, whichever tokenizer built it and whether the strings
// came raw or already tokenized.
func TestBuildCorpusRecycledMatchesFresh(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 31, NumNames: 3000})
	inputs := [][]string{
		names[:1500], names[:10], names, adversarialInputs(), nil, names[:200],
		append(adversarialInputs(), names[:700]...), names[2990:], names[:2500],
	}
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
			for i, in := range inputs {
				c := BuildCorpus(in, tc.tok)
				compareCorpus(t, c, refBuildCorpus(in, tc.ref))
				if c.NumStrings() != len(in) {
					t.Fatalf("build %d: %d strings, want %d", i, c.NumStrings(), len(in))
				}
				c.Release()
			}
		})
	}
	t.Run("FromTokenized", func(t *testing.T) {
		for _, in := range inputs {
			strs := make([]TokenizedString, len(in))
			for s, raw := range in {
				strs[s] = commaTokenizer(raw)
			}
			c := BuildCorpusFromTokenized(strs)
			compareCorpus(t, c, refBuildCorpus(in, refCommaTokenizer))
			c.Release()
		}
	})
}

// FuzzBuildCorpusRecycled builds one short input list, releases it and
// builds a second on its slabs, which must be the reference build of the
// second list, for a built-in tokenizer and for the custom one. Each byte
// picks a piece from a small alphabet of non-ASCII runes, separators, a
// list break and an 8-byte head that makes tokens tie on the token-id
// sort's radix key; the few pieces make repeated tokens common.
func FuzzBuildCorpusRecycled(f *testing.F) {
	f.Add([]byte("\x00\x01\x08\x02\x0f\x07\x00\x01"), []byte("\x07\x00\x08\x07\x01"))
	f.Add([]byte("\x00\x00\x00\x0f\x00\x00"), []byte{})
	f.Add([]byte{}, []byte("\x03\x04\x05\x06\x09\x0a\x0b\x03"))
	f.Add([]byte("\x07\x00\x08\x07\x01\x0f\x07\x07\x0f\x07\x00\x09\x07"), []byte("\x07\x01\x0b\x07\x00"))
	f.Add([]byte("\x02\x0d\x03\x0e\x04\x0f\x05\x0c\x06"), []byte("\x0f\x0f\x08\x0f"))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		a, b := fuzzList(first), fuzzList(second)
		for _, tc := range []struct {
			tok Tokenizer
			ref func(string) refString
		}{{WhitespaceAndPunct, refWhitespaceAndPunct}, {commaTokenizer, refCommaTokenizer}} {
			BuildCorpus(a, tc.tok).Release()
			c := BuildCorpus(b, tc.tok)
			compareCorpus(t, c, refBuildCorpus(b, tc.ref))
			c.Release()
		}
	})
}

// fuzzList decodes a fuzz input into at most 64 strings.
func fuzzList(data []byte) []string {
	pieces := [...]string{"a", "b", "B", "é", "ß", "İ", "名", "abcdefgh", " ", ",", "-", "\t", "\x00", "Ω", "ǅ"}
	var list []string
	var cur strings.Builder
	for _, c := range data {
		if i := int(c) % (len(pieces) + 1); i == len(pieces) { // a list break
			list = append(list, cur.String())
			cur.Reset()
		} else {
			cur.WriteString(pieces[i])
		}
		if len(list) == 64 {
			return list
		}
	}
	return append(list, cur.String())
}

// TestReleasedCorpusKeepsNoTokens: neither a released corpus nor the
// slabs it gave back keep its token strings alive. The test takes the
// corpus's own string and rune-view slabs back out of their free lists
// (it knows them by address), and the build's scratch and intern map with
// them, and holds them and the corpus while it waits, so that only
// Release's nilling and the lists' clearing can free the tokens, and not
// the lists dropping slabs that stay idle. Collection is off until the
// tables are taken back, so that no collection ages them out first.
func TestReleasedCorpusKeepsNoTokens(t *testing.T) {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var made, freed atomic.Int64
	raw := make([]string, 300)
	for i := range raw {
		// Tokens longer than the tiny allocator's 16 bytes get an
		// allocation of their own, so a finalizer can watch each.
		raw[i] = strings.Repeat(string(rune('a'+i%26)), 20+i%7) + " tokennumber" + strings.Repeat("x", 10+i%40)
	}
	c := BuildCorpus(raw, WhitespaceAndPunct)
	if _, ok := c.TokenIDOf(c.Tokens[0]); !ok { // builds the lazy intern map too
		t.Fatal("TokenIDOf missed a token of the corpus")
	}
	for _, tok := range c.Tokens {
		made.Add(1)
		runtime.SetFinalizer(unsafe.StringData(tok), func(*byte) { freed.Add(1) })
	}
	nOcc := 0
	for s := range c.Strings {
		nOcc += c.Strings[s].Count()
	}
	sizes := []int{len(raw), c.NumTokens(), nOcc}
	want := []unsafe.Pointer{
		unsafe.Pointer(unsafe.SliceData(c.Strings)),
		unsafe.Pointer(unsafe.SliceData(c.Tokens)),
		unsafe.Pointer(unsafe.SliceData(c.TokenRunes)),
		unsafe.Pointer(unsafe.SliceData(c.Strings[0].Tokens)),       // the token arena
		unsafe.Pointer(unsafe.SliceData(c.Strings[0].RuneSlices())), // the rune-view arena
	}
	c.Release()
	var held slab.Loans // never returned
	got := map[unsafe.Pointer]bool{}
	for _, n := range sizes {
		for i := 0; i < len(sizes); i++ { // tables of one size come back in any order
			got[unsafe.Pointer(unsafe.SliceData(slab.Take[string](&held, n)))] = true
			got[unsafe.Pointer(unsafe.SliceData(slab.Take[[]rune](&held, n)))] = true
			got[unsafe.Pointer(unsafe.SliceData(slab.Take[TokenizedString](&held, n)))] = true
		}
	}
	ids := slab.Map[string, TokenID](&held, len(raw))
	debug.SetGCPercent(gcPercent)
	for _, p := range want {
		if !got[p] {
			t.Fatal("the corpus's tables did not come back out of their free lists")
		}
	}
	for i := 0; i < 50 && freed.Load() < made.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(&held)
	runtime.KeepAlive(ids)
	if f, m := freed.Load(), made.Load(); f < m {
		t.Fatalf("%d of %d token strings are still reachable after Release", m-f, m)
	}
}

// TestUseAfterReleaseFails: a released corpus has no tables left, so
// reading a string, token, member list or frequency of it panics; a
// second Release does nothing, and Release leaves a corpus that was not
// built, and a View of a built one, as they were.
func TestUseAfterReleaseFails(t *testing.T) {
	inputs := []string{"alpha beta", "beta gamma"}
	c := BuildCorpus(inputs, WhitespaceAndPunct)
	grown := &Corpus{}
	grown.Add(WhitespaceAndPunct("alpha beta"))
	view := c.View()
	view.Release()
	grown.Release()
	compareCorpus(t, view, refBuildCorpus(inputs, refWhitespaceAndPunct))
	if grown.NumStrings() != 1 || grown.NumTokens() != 2 {
		t.Fatalf("Release emptied a corpus that was not built: %d strings, %d tokens", grown.NumStrings(), grown.NumTokens())
	}
	c.Release()
	c.Release()
	for name, use := range map[string]func(){
		"Strings": func() { _ = c.Strings[0].Count() },
		"Tokens":  func() { _ = c.Tokens[0] },
		"Members": func() { _ = c.Members[1] },
		"Freq":    func() { _ = c.Freq[0] },
		"Forget":  func() { c.Forget(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a released corpus did not panic", name)
				}
			}()
			use()
		}()
	}
	if c.NumStrings() != 0 || c.NumTokens() != 0 {
		t.Fatalf("released corpus reports %d strings and %d tokens", c.NumStrings(), c.NumTokens())
	}
}

// TestBuildCorpusRecycledAllocations: once a released build's slabs are
// idle, the next build of the same size allocates at most a tenth of the
// bytes a build on empty free lists does — the token strings and a few
// small tables. Collection is off while it measures, so that no
// collection ages the slabs out between builds.
func TestBuildCorpusRecycledAllocations(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 5, NumNames: 8000})
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	// Two collections age out what earlier tests left idle; a slab left
	// over would only serve part of the fresh build, a stricter bound.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var c *Corpus
	fresh := allocated(func() { c = BuildCorpus(names, WhitespaceAndPunct) })
	const cycles = 5
	recycled := allocated(func() {
		for i := 0; i < cycles; i++ {
			c.Release()
			c = BuildCorpus(names, WhitespaceAndPunct)
		}
	}) / cycles
	c.Release()
	t.Logf("fresh build %d B, recycled build %d B", fresh, recycled)
	if recycled*10 > fresh {
		t.Fatalf("a build on recycled slabs allocates %d B, more than a tenth of a fresh build's %d B", recycled, fresh)
	}
}
