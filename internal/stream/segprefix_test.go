package stream

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/namegen"
	"repro/internal/token"
)

// TestSegmentPrefixEquivalenceStream: at one shard, the segment-filtered
// match sets equal the oracle's at several thresholds, and the filter
// actually skips segment probes somewhere in the sweep.
func TestSegmentPrefixEquivalenceStream(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 55, NumNames: 220})
	prunedSomewhere := false
	for _, th := range []float64{0.1, 0.2, 0.35} {
		got, st := streamAll(t, names, Options{Threshold: th}, 1)
		checkStreams(t, fmt.Sprintf("t=%.2f", th), oracleStream(names, th, false), got)
		if st.SegPrefixPruned > 0 {
			prunedSomewhere = true
		}
	}
	if !prunedSomewhere {
		t.Fatal("SegPrefixPruned never populated across the sweep")
	}
}

// TestSegmentPrefixEquivalenceStreamMaxFreq: the filter composes with the
// max-token-frequency cutoff — the probe-side carve-out keeps probing
// tokens beyond the cutoff, and storage-side pruning is disabled, so the
// cutoff matcher's match stream is exactly the cutoff oracle's.
func TestSegmentPrefixEquivalenceStreamMaxFreq(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 56, NumNames: 220})
	for _, maxFreq := range []int{2, 5, 20} {
		for _, th := range []float64{0.15, 0.25} {
			opt := Options{Threshold: th, MaxTokenFreq: maxFreq}
			got, _ := streamAll(t, names, opt, 1)
			checkStreams(t, fmt.Sprintf("M=%d t=%.2f", maxFreq, th), cutoffStream(names, opt), got)
		}
	}
}

// TestSegmentPrefixEquivalenceStreamMaxFreqCarveOut targets the one
// M-shaped corner of the losslessness argument: a qualifying pair whose
// every shared token exceeds the cutoff is invisible to the exact path,
// and its similar-token witness hangs off a probe token that is more
// frequent than every prefix token — exactly the token the carve-out must
// keep probing. Without the carve-out the pair is silently lost.
func TestSegmentPrefixEquivalenceStreamMaxFreqCarveOut(t *testing.T) {
	u := "commontoken" + strings.Repeat("a", 19) // length 30
	v := "commontoken" + strings.Repeat("a", 18) + "b"
	var names []string
	// Make u frequent (well past M = 1).
	for i := 0; i < 10; i++ {
		names = append(names, fmt.Sprintf("%s filler%02d", u, i))
	}
	// ra/rb/rc reach frequency 2 before q arrives, so the M = 1 gate
	// rejects every shared token of the target pair.
	names = append(names, "ra rb rc zfiller")
	x := "ra rb rc " + v
	q := "ra rb rc " + u
	names = append(names, x)
	xID := len(names) - 1
	names = append(names, q) // q arrives last and must match x

	opt := Options{Threshold: 0.06, MaxTokenFreq: 1}
	want := cutoffStream(names, opt)
	got, _ := streamAll(t, names, opt, 1)
	checkStreams(t, "carve-out corner", want, got)
	// The corner must actually have triggered: the cutoff oracle finds
	// (x, q) through the u~v similar pair despite every shared token
	// sitting beyond the cutoff.
	found := false
	for _, mt := range want[len(want)-1] {
		if mt.ID == xID {
			found = true
		}
	}
	if !found {
		t.Fatalf("corner not exercised: %q did not match %q under the cutoff (matches %v)",
			q, x, want[len(want)-1])
	}
}

// TestSegmentPrefixEquivalenceSharded: behind the segment prefix filter,
// the matcher equals the oracle at several shard counts and thresholds —
// per-shard segment storage and the one global frequency order must lose
// nothing.
func TestSegmentPrefixEquivalenceSharded(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 57, NumNames: 200})
	for _, th := range []float64{0.1, 0.2, 0.3} {
		want := oracleStream(names, th, false)
		for _, shards := range []int{1, 3, 8} {
			label := fmt.Sprintf("t=%.2f shards=%d", th, shards)
			got, st := streamAll(t, names, Options{Threshold: th}, shards)
			checkStreams(t, label, want, got)
			if st.SegKeysProbed == 0 {
				t.Fatalf("%s: SegKeysProbed never populated", label)
			}
		}
	}
}

// TestSegmentPrefixEquivalenceTies: adversarial frequency ties — every
// token appears the same number of times, so prefix membership (and with
// it segment storage and probing) rests entirely on the deterministic
// tie-break, and every shard count must still return the oracle's
// matches.
func TestSegmentPrefixEquivalenceTies(t *testing.T) {
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
	// Similar-token-only partners (each token one edit off).
	names = append(names, "alphq bravp carpl", "deltz echps fotpx")
	const th = 0.3
	want := oracleStream(names, th, false)
	for _, shards := range []int{1, 2, 5} {
		got, _ := streamAll(t, names, Options{Threshold: th}, shards)
		checkStreams(t, fmt.Sprintf("shards=%d", shards), want, got)
	}
}

// TestSegmentPrefixEquivalenceWarmLoad: a matcher warm-loaded from a
// persistent corpus prunes segment storage by prefix marks priced against
// the corpus's final frequencies — a different order than the live-ingest
// path used — and must still serve exactly the oracle's queries. The
// pruning must be real: at T = 0.1 the warm-loaded index segment-indexes
// strictly fewer tokens than a warm load with the segment prefix filter
// off, so a marking that marks nothing fails.
func TestSegmentPrefixEquivalenceWarmLoad(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 58, NumNames: 180})
	strs := tokenizeAll(names)
	dir := t.TempDir()
	pc, err := corpus.Open(dir, corpus.Options{DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	for _, n := range names {
		if _, err := pc.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	segIndexed := func(m *ShardedMatcher) (indexed, interned int) {
		for _, ix := range m.shards {
			for _, in := range ix.segIndexed {
				if in {
					indexed++
				}
			}
		}
		for _, n := range m.Stats().TokensPerShard {
			interned += n
		}
		return indexed, interned
	}
	for _, th := range []float64{0.1, 0.2, 0.3} {
		m, err := NewShardedFromCorpus(Options{Threshold: th}, 3, pc)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			if want, got := oracleMatches(strs[i], strs, th, false), m.Query(n); !matchesEqual(want, got) {
				t.Fatalf("t=%.2f: warm-loaded segment-filtered query %q: %v, want %v", th, n, got, want)
			}
		}
		// At T = 0.1 some tokens sit in no string's prefix; at the looser
		// thresholds every token does.
		got, all := segIndexed(m)
		if got > all || th == 0.1 && got == all {
			t.Fatalf("t=%.2f: warm load segment-indexed %d of %d tokens; want fewer", th, got, all)
		}
		m.Close()
	}
}

// TestSegmentProbeZeroAlloc: the steady-state candidate probe — exact
// lookups plus the full similar-token segment probe — performs zero
// allocations once the per-worker scratch is warm.
func TestSegmentProbeZeroAlloc(t *testing.T) {
	names := namegen.Generate(namegen.Config{Seed: 59, NumNames: 500})
	const th = 0.2
	m := newMatcher(t, Options{Threshold: th}, 1)
	for _, n := range names {
		m.Add(n)
	}
	ix, sc := m.shards[0], newProbeScratch(th)
	probes := make([][]probeToken, 0, 50)
	for i := 0; i < 50; i++ {
		probes = append(probes, markedProbe(m, token.WhitespaceAndPunct(names[i*7%len(names)])))
	}
	var pc probeCounters
	var sink int64
	emit := func(cand int32) { sink += int64(cand) }
	probeAll := func() {
		for _, p := range probes {
			ix.candidates(m.tc, p, sc, &pc, emit)
		}
	}
	probeAll() // warm the scratch (visited growth, plan memo, hash arrays)
	if allocs := testing.AllocsPerRun(20, probeAll); allocs != 0 {
		t.Fatalf("steady-state probe allocates: %.1f allocs/op (want 0)", allocs)
	}
	if pc.segKeysProbed == 0 {
		t.Fatal("probe exercised no segment keys; the zero-alloc claim is vacuous")
	}
}

// markedProbe is ts's distinct-token probe, stamped and prefix-marked
// against m's token space the way a live Add marks it.
func markedProbe(m *ShardedMatcher, ts token.TokenizedString) []probeToken {
	probe := distinctProbe(ts)
	m.mu.RLock()
	m.markProbe(ts, probe)
	m.mu.RUnlock()
	return probe
}
