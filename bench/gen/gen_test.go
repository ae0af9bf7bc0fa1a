package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	tsjoin "repro"
)

func hashOf(ss []string) string {
	if len(ss) > 1000 {
		ss = ss[:1000]
	}
	h := sha256.Sum256([]byte(strings.Join(ss, "\n")))
	return hex.EncodeToString(h[:8])
}

// TestGolden pins the bytes: a change to a generator changes the load, and
// with it every number the benchmark has ever reported.
func TestGolden(t *testing.T) {
	preload := Names(1, 3000)
	adds, _ := AddStream(1, preload, 1000)
	for _, c := range []struct {
		name string
		got  []string
		want string
	}{
		{"Names", preload, "c1af91c29437d4a5"},
		{"Long", Long(1, 300), "4f4f8b7d70ddc9a7"},
		{"AddStream", adds, "c8b8c4591c3be210"},
		{"ProbeStream", ProbeStream(1, preload, 1000), "0e28508692376045"},
	} {
		if got := hashOf(c.got); got != c.want {
			t.Errorf("%s(seed 1): first 1000 strings hash to %s, golden is %s", c.name, got, c.want)
		}
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	if a, b := Names(7, 2000), Names(7, 2000); hashOf(a) != hashOf(b) {
		t.Error("Names(7) differs between two calls")
	}
	if a, b := Long(7, 200), Long(7, 200); hashOf(a) != hashOf(b) {
		t.Error("Long(7) differs between two calls")
	}
	if hashOf(Names(7, 2000)) == hashOf(Names(8, 2000)) {
		t.Error("Names(7) and Names(8) are the same strings")
	}
}

func tokensPerString(ss []string) (min, max int, mean float64) {
	min = 1 << 30
	total := 0
	for _, s := range ss {
		k := len(strings.Fields(s))
		total += k
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	return min, max, float64(total) / float64(len(ss))
}

func assertDistinct(t *testing.T, what string, ss ...[]string) {
	t.Helper()
	seen := make(map[string]struct{})
	for _, list := range ss {
		for _, s := range list {
			if _, dup := seen[s]; dup {
				t.Fatalf("%s: %q appears twice", what, s)
			}
			seen[s] = struct{}{}
		}
	}
}

// TestShape holds the generators to the ranges bench/README.md states: the
// workloads' cost follows tokens per string and candidates per string, so a
// generator drifting out of them is a different benchmark.
func TestShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		names := Names(seed, 8000)
		assertDistinct(t, "Names", names)
		if lo, hi, mean := tokensPerString(names); lo < 2 || hi > 5 || mean < 2.2 || mean > 2.7 {
			t.Errorf("Names(%d): tokens per string min %d max %d mean %.2f, want 2..5 and mean in [2.2, 2.7]", seed, lo, hi, mean)
		}
		_, st, err := tsjoin.SelfJoinStats(names, tsjoin.Options{Threshold: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if c := float64(st.SharedTokenCandidates+st.SimilarTokenCandidates) / float64(len(names)); c < 2.2 || c > 3.2 {
			t.Errorf("Names(%d): %.2f candidates per string at T=0.1, want [2.2, 3.2]", seed, c)
		}
		if st.Results < 900 || st.Results > 1500 {
			t.Errorf("Names(%d): %d result pairs at T=0.1, want [900, 1500]", seed, st.Results)
		}

		long := Long(seed, 300)
		assertDistinct(t, "Long", long)
		if lo, hi, mean := tokensPerString(long); lo < 8 || hi > 12 || mean < 9.5 || mean > 10.5 {
			t.Errorf("Long(%d): tokens per string min %d max %d mean %.2f, want 8..12 and mean in [9.5, 10.5]", seed, lo, hi, mean)
		}
		_, st, err = tsjoin.SelfJoinStats(long, tsjoin.Options{Threshold: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		if c := float64(st.SharedTokenCandidates+st.SimilarTokenCandidates) / float64(len(long)); c < 34 || c > 48 {
			t.Errorf("Long(%d): %.1f candidates per string at T=0.3, want [34, 48]", seed, c)
		}

		preload := names[:4000]
		adds, variantOf := AddStream(seed, preload, 3000)
		assertDistinct(t, "preload+AddStream", preload, adds)
		variants := 0
		for _, v := range variantOf {
			if v >= 0 {
				variants++
			}
		}
		if variants != 900 {
			t.Errorf("AddStream(%d): %d of 3000 are ring variants, want 900", seed, variants)
		}
		if probes := ProbeStream(seed, preload, 1000); len(probes) != 1000 {
			t.Errorf("ProbeStream(%d): %d probes, want 1000", seed, len(probes))
		}
	}
}
