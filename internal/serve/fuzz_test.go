package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"

	tsjoin "repro"
	"repro/internal/distrib"
	"repro/internal/nsldtest"
	"repro/internal/token"
)

// FuzzServeProbe posts fuzzed bodies to a worker's POST /cluster/probe
// over a small seeded corpus with a tombstone, a token-less string and an
// astral-rune token. The handler must not panic, must answer every body it
// refuses with a 4xx, and must answer every body it accepts with the naive
// join (nsldtest.Bipartite) of the corpus's live strings against token.New
// of each probe: exactly under the exact configuration, a subset under
// greedy alignment, exact-token matching or a finite MaxTokenFreq.
func FuzzServeProbe(f *testing.F) {
	c, err := tsjoin.OpenCorpus(f.TempDir(), tsjoin.CorpusOptions{DisableSync: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	if _, err := c.AddBatch([]string{
		"maria del carmen", "maria del karmen", "mario del carmen", "jon smith",
		"john smith", "smith jon", "...", "ab\U0001F600cd smith", "deleted string", "li wei",
		"wei li", "maria qwk zxvybn",
	}); err != nil {
		f.Fatal(err)
	}
	if err := c.Delete(8); err != nil {
		f.Fatal(err)
	}
	ids, toks := c.LiveTokens()
	live := make([]token.TokenizedString, len(ids))
	for i, ts := range toks {
		live[i] = token.New(ts)
	}
	m, err := tsjoin.NewConcurrentMatcherFromCorpus(c, tsjoin.ConcurrentMatcherOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(m.Close)
	h := newServer(m, c, 0).Handler()

	for _, seed := range []string{
		`{"threshold": 0.3, "probes": [["carmen", "del", "maria"], ["jon", "smith"]]}`,
		`{"threshold": 0.3, "greedy": true, "exact_tokens": true, "max_token_freq": 1, "probes": [["li", "wei"]]}`,
		`{"threshold": 0.3, "probes": [], "bogus": 1}`,
		`{"threshold": NaN, "probes": [["jon"]]}`,
		`{"threshold": 1.5, "probes": [["jon"]]}`,
		`{"threshold": -0.1, "probes": [["jon"]]}`,
		`{"threshold": 0.4, "probes": [["", "smith", "smith", ""], [], [""]]}`,
		`{"threshold": 0.4, "probes": [["ab😀cd", "smith"], ["😀"]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1024 {
			return // keeps the naive join's Hungarian calls small
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/cluster/probe", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			if w.Code < 400 || w.Code >= 500 {
				t.Fatalf("status %d for %q: %s", w.Code, body, w.Body.String())
			}
			return
		}
		// The handler accepted the body, so the same decode succeeds.
		var req distrib.ProbeJoinRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("accepted %q, which does not decode: %v", body, err)
		}
		var resp distrib.PairsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad probe response for %q: %q", body, w.Body.String())
		}
		got := make(map[[2]int]int, len(resp.Pairs))
		for _, p := range resp.Pairs {
			got[[2]int{p.A, p.B}] = p.SLD
		}
		if len(got) != len(resp.Pairs) {
			t.Fatalf("%q: duplicate pairs in %+v", body, resp.Pairs)
		}
		strs := append([]token.TokenizedString(nil), live...)
		for _, p := range req.Probes {
			strs = append(strs, token.New(p))
		}
		want := make(map[[2]int]int)
		for ij, sld := range nsldtest.Bipartite(strs, len(live), req.Threshold, false) {
			want[[2]int{ids[ij[0]], ij[1] - len(live)}] = sld
		}
		if req.Greedy || req.ExactTokens || req.MaxTokenFreq > 0 {
			if err := nsldtest.Subset(want, got); err != nil {
				t.Fatalf("%q: %v", body, err)
			}
		} else if !maps.Equal(want, got) {
			t.Fatalf("%q: %d pairs %v, naive join %d pairs %v", body, len(got), got, len(want), want)
		}
	})
}
