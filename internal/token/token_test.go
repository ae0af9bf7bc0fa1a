package token

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestTokenizedStringSize pins the struct at three slice headers and an
// int: every served string and every candidate list copies it, so
// new per-string data rides in an existing arena (the stored signatures
// share lenHist) rather than in a new field.
func TestTokenizedStringSize(t *testing.T) {
	want := 3*unsafe.Sizeof([]int(nil)) + unsafe.Sizeof(0)
	if got := unsafe.Sizeof(TokenizedString{}); got != want {
		t.Fatalf("unsafe.Sizeof(TokenizedString{}) = %d, want %d", got, want)
	}
}

func TestWhitespaceAndPunct(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Barak Obama", []string{"barak", "obama"}},
		{"Obamma, Boraak H.", []string{"boraak", "h", "obamma"}},
		{"  multiple   spaces ", []string{"multiple", "spaces"}},
		{"", nil},
		{"...", nil},
		{"O'Neill-Smith", []string{"neill", "o", "smith"}},
		{"Jean-Luc", []string{"jean", "luc"}},
		{"ABC123 def", []string{"abc123", "def"}},
		{"名前 テスト", []string{"テスト", "名前"}},
	}
	for _, c := range cases {
		got := WhitespaceAndPunct(c.in)
		if len(c.want) == 0 && got.Count() == 0 {
			continue
		}
		if !reflect.DeepEqual(got.Tokens, c.want) {
			t.Errorf("WhitespaceAndPunct(%q) = %v, want %v", c.in, got.Tokens, c.want)
		}
	}
}

func TestTokenizedStringAccounting(t *testing.T) {
	ts := New([]string{"chan", "kalan"})
	if ts.Count() != 2 {
		t.Errorf("Count = %d, want 2", ts.Count())
	}
	if ts.AggregateLen() != 9 { // paper Sec. II-D: L({"chan","kalan"}) = 9
		t.Errorf("AggregateLen = %d, want 9", ts.AggregateLen())
	}
	if got := ts.LengthHistogram(); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Errorf("LengthHistogram = %v, want [4 5]", got)
	}
}

func TestTokenizedStringMultisetSemantics(t *testing.T) {
	a := New([]string{"x", "x", "y"})
	b := New([]string{"y", "x", "x"})
	if !a.Equal(b) {
		t.Error("order must not matter for multiset equality")
	}
	c := New([]string{"x", "y"})
	if a.Equal(c) {
		t.Error("multiplicity must matter for multiset equality")
	}
	if a.Key() == c.Key() {
		t.Error("keys of distinct multisets must differ")
	}
}

func TestEmptyTokensDropped(t *testing.T) {
	ts := New([]string{"", "a", ""})
	if ts.Count() != 1 || ts.Tokens[0] != "a" {
		t.Errorf("empty tokens must be dropped, got %v", ts.Tokens)
	}
}

func TestRuneAwareLengths(t *testing.T) {
	ts := New([]string{"日本語"})
	if ts.AggregateLen() != 3 {
		t.Errorf("AggregateLen for 日本語 = %d, want 3 runes", ts.AggregateLen())
	}
}

func TestBuildCorpus(t *testing.T) {
	raw := []string{"barak obama", "barak h obama", "john smith", "john m smith"}
	c := BuildCorpus(raw, WhitespaceAndPunct)
	if c.NumStrings() != 4 {
		t.Fatalf("NumStrings = %d, want 4", c.NumStrings())
	}
	wantTokens := []string{"barak", "h", "john", "m", "obama", "smith"}
	if !reflect.DeepEqual(c.Tokens, wantTokens) {
		t.Fatalf("token space = %v, want %v", c.Tokens, wantTokens)
	}
	id, ok := c.TokenIDOf("barak")
	if !ok {
		t.Fatal("barak missing from token space")
	}
	if c.Freq[id] != 2 {
		t.Errorf("Freq[barak] = %d, want 2", c.Freq[id])
	}
	if got := c.TotalPairs(); got != 6 {
		t.Errorf("TotalPairs = %v, want 6", got)
	}
	// Membership lists are distinct token ids in ascending order.
	for s, mem := range c.Members {
		for i := 1; i < len(mem); i++ {
			if mem[i] <= mem[i-1] {
				t.Errorf("Members[%d] not strictly ascending: %v", s, mem)
			}
		}
	}
}

func TestCorpusDuplicateTokensCountOnce(t *testing.T) {
	c := BuildCorpus([]string{"bo bo bo"}, WhitespaceAndPunct)
	id, ok := c.TokenIDOf("bo")
	if !ok {
		t.Fatal("bo missing")
	}
	if c.Freq[id] != 1 {
		t.Errorf("document frequency must count strings, not occurrences: got %d", c.Freq[id])
	}
	if len(c.Members[0]) != 1 {
		t.Errorf("Members must list distinct tokens once: %v", c.Members[0])
	}
	// But the multiset itself retains multiplicity.
	if c.Strings[0].Count() != 3 {
		t.Errorf("multiset must keep duplicates: %v", c.Strings[0].Tokens)
	}
}
