package stream

import (
	"fmt"
	"testing"

	"repro/internal/namegen"
)

// TestPrefixEquivalenceStream: at one shard, the prefix-filtered match
// sets equal the cutoff oracle's at several thresholds, under both
// token-matching modes, and the filter actually skips posting entries.
func TestPrefixEquivalenceStream(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 51, NumNames: 220})
	prunedSomewhere := false
	for _, exactOnly := range []bool{false, true} {
		for _, th := range []float64{0.1, 0.2, 0.35} {
			opt := Options{Threshold: th, ExactTokensOnly: exactOnly}
			got, st := streamAll(t, names, opt, 1)
			checkStreams(t, fmt.Sprintf("t=%.2f exactOnly=%v", th, exactOnly), cutoffStream(names, opt), got)
			if st.PrefixPruned > 0 {
				prunedSomewhere = true
			}
		}
	}
	// Lax thresholds can legitimately cover the whole probe (the prefix is
	// the full distinct set); the tight end of the sweep must prune.
	if !prunedSomewhere {
		t.Fatal("PrefixPruned never populated across the sweep")
	}
}

// TestPrefixEquivalenceStreamMaxFreq: the filter composes with the
// max-token-frequency cutoff — prefix selection over the live frequencies
// never hides a pair the cutoff oracle reports.
func TestPrefixEquivalenceStreamMaxFreq(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 52, NumNames: 220})
	for _, maxFreq := range []int{2, 5, 20} {
		opt := Options{Threshold: 0.25, MaxTokenFreq: maxFreq}
		got, _ := streamAll(t, names, opt, 1)
		checkStreams(t, fmt.Sprintf("M=%d", maxFreq), cutoffStream(names, opt), got)
	}
}

// TestPrefixEquivalenceSharded: behind the prefix filter, the matcher
// equals the oracle at several shard counts — the prefix priced on the
// one token space must hold on whichever shard owns each token.
func TestPrefixEquivalenceSharded(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 53, NumNames: 200})
	for _, th := range []float64{0.1, 0.2, 0.3} {
		want := oracleStream(names, th, false)
		for _, shards := range []int{1, 3, 8} {
			label := fmt.Sprintf("t=%.2f shards=%d", th, shards)
			got, st := streamAll(t, names, Options{Threshold: th}, shards)
			checkStreams(t, label, want, got)
			// The tight end of the sweep must prune (lax thresholds can
			// legitimately keep the whole probe as the prefix).
			if th <= 0.1 && st.PrefixPruned == 0 {
				t.Fatalf("%s: PrefixPruned never populated", label)
			}
		}
	}
}

// TestPrefixEquivalenceShardedTies: adversarial frequency ties — every
// token appears the same number of times, so prefix selection rests
// entirely on the deterministic tie-break, and every shard count must
// still return the oracle's matches.
func TestPrefixEquivalenceShardedTies(t *testing.T) {
	words := []string{
		"alpha", "bravo", "carol", "delta", "echos", "fotox",
		"golfy", "hotel", "india", "julie", "kilos", "limas",
	}
	var names []string
	n := len(words)
	for rot := 0; rot < 2; rot++ { // every token ends at the same frequency
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("%s %s %s",
				words[i], words[(i+1+rot)%n], words[(i+3+rot)%n]))
		}
	}
	const th = 0.3
	want := oracleStream(names, th, false)
	for _, shards := range []int{1, 2, 5} {
		got, _ := streamAll(t, names, Options{Threshold: th}, shards)
		checkStreams(t, fmt.Sprintf("shards=%d", shards), want, got)
	}
}

// TestPrefixWallTimeCounters: the candidate-generation and verify wall
// clocks accumulate at one shard and more.
func TestPrefixWallTimeCounters(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 54, NumNames: 120})
	for _, shards := range []int{1, 3} {
		_, st := streamAll(t, names, Options{Threshold: 0.2}, shards)
		if st.CandGenWall <= 0 || st.VerifyWall <= 0 {
			t.Fatalf("shards=%d: wall counters not populated: gen=%v verify=%v",
				shards, st.CandGenWall, st.VerifyWall)
		}
	}
}
