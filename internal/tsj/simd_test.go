package tsj

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mapreduce"
	"repro/internal/namegen"
	"repro/internal/token"
)

// dedupVerifyJob returns the stats of the join's dedup+filter+verify job.
func dedupVerifyJob(t *testing.T, st *Stats) *mapreduce.Stats {
	t.Helper()
	for _, j := range st.Pipeline.Jobs {
		if strings.Contains(j.Name, "dedup-verify") {
			return j
		}
	}
	t.Fatal("no dedup-verify job in the pipeline")
	return nil
}

// checkSIMDStats asserts what the staged path owes the scalar one beyond
// equal results: the same verify funnel, the same simulated-cluster work
// for the dedup-verify job (the ctx.AddCost charges and the per-output
// unit feed the scalability figures and must not depend on the host's
// kernel), SIMD counters dark under DisableSIMD, and — kernel live —
// every verified pair staged, so a scalar side-door cannot come back
// unnoticed.
func checkSIMDStats(t *testing.T, label string, on, off *Stats) {
	t.Helper()
	if on.Verified != off.Verified || on.BudgetPruned != off.BudgetPruned ||
		on.LengthPruned != off.LengthPruned || on.LBPruned != off.LBPruned ||
		on.Results != off.Results || on.DedupedCandidates != off.DedupedCandidates {
		t.Fatalf("%s: staging changed the verify funnel:\n on  %v\n off %v", label, on, off)
	}
	if off.BatchedPairs != 0 || off.SIMDKernels != 0 || off.SigPruned != 0 {
		t.Fatalf("%s: SIMD counters nonzero with DisableSIMD", label)
	}
	if on.SigPruned > on.BudgetPruned || on.SigPruned > on.BatchedPairs {
		t.Fatalf("%s: SigPruned=%d is not a subset of BudgetPruned=%d and BatchedPairs=%d",
			label, on.SigPruned, on.BudgetPruned, on.BatchedPairs)
	}
	jon, joff := dedupVerifyJob(t, on), dedupVerifyJob(t, off)
	// Greedy's k^2 log k charge is not an integer, so its sum depends on
	// the order reduce keys happened to run in.
	if d := math.Abs(jon.ReduceWork - joff.ReduceWork); d > 1e-9*joff.ReduceWork {
		t.Fatalf("%s: dedup-verify ReduceWork %v staged vs %v scalar", label, jon.ReduceWork, joff.ReduceWork)
	}
	if jon.OutRecords != joff.OutRecords {
		t.Fatalf("%s: dedup-verify OutRecords %d staged vs %d scalar", label, jon.OutRecords, joff.OutRecords)
	}
	if !core.BatchKernelAvailable() {
		if on.BatchedPairs != 0 {
			t.Fatalf("%s: BatchedPairs=%d without a kernel", label, on.BatchedPairs)
		}
		return
	}
	if on.BatchedPairs != on.Verified {
		t.Fatalf("%s: kernel live but BatchedPairs=%d of Verified=%d", label, on.BatchedPairs, on.Verified)
	}
	if on.SIMDLanes < on.SIMDKernels || on.SIMDLanes > int64(core.BatchKernelWidth())*on.SIMDKernels {
		t.Fatalf("%s: lane count %d incoherent for %d kernels", label, on.SIMDLanes, on.SIMDKernels)
	}
}

// TestSIMDEquivalenceJoin: self-joins return byte-identical sorted result
// slices and identical stats (checkSIMDStats) with the staged vector path
// on and off, across thresholds, aligners and dedup strategies. With
// TestSIMDEquivalenceAllBatched this is the join leg of the CI
// equivalence guard.
func TestSIMDEquivalenceJoin(t *testing.T) {
	t.Logf("batch kernel available: %v", core.BatchKernelAvailable())
	rng := rand.New(rand.NewSource(314))
	for _, threshold := range []float64{0.1, 0.25} {
		for _, align := range []Aligning{HungarianAligning, GreedyAligning} {
			for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
				c := nameCorpus(rng, 120)
				base := Options{Threshold: threshold, Aligning: align, Dedup: dedup}
				off := base
				off.DisableSIMD = true

				got, gst, err := SelfJoin(c, base)
				if err != nil {
					t.Fatal(err)
				}
				want, wst, err := SelfJoin(c, off)
				if err != nil {
					t.Fatal(err)
				}
				label := align.String() + " " + dedup.String()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("t=%.2f %s: staged self-join differs from scalar (%d vs %d results)",
						threshold, label, len(got), len(want))
				}
				checkSIMDStats(t, label, gst, wst)
			}
		}
	}
}

// TestSIMDEquivalenceAllBatched: every join entry point, under both dedup
// strategies, sends every verified pair through the stager (BatchedPairs
// == Verified when the kernel is live) and still matches its DisableSIMD
// run in results and stats.
func TestSIMDEquivalenceAllBatched(t *testing.T) {
	all := namegen.Generate(namegen.Config{Seed: 91, NumNames: 420})
	names, probeNames := all[:300], all[300:] // one pool, so cross-set similarity exists
	c := token.BuildCorpus(names, token.WhitespaceAndPunct)
	bi, nr := buildBipartite(names, probeNames)
	probes := make([]token.TokenizedString, len(probeNames))
	for i, s := range probeNames {
		probes[i] = token.WhitespaceAndPunct(s)
	}
	pc := openSeeded(t, names, corpus.Options{})
	for _, sid := range []token.StringID{2, 150, 299} {
		if err := pc.Delete(sid); err != nil {
			t.Fatal(err)
		}
	}
	entries := []struct {
		name string
		join func(Options) ([]Result, *Stats, error)
	}{
		{"SelfJoin", func(o Options) ([]Result, *Stats, error) { return SelfJoin(c, o) }},
		{"Join", func(o Options) ([]Result, *Stats, error) { return Join(bi, nr, o) }},
		{"SelfJoinCorpus", func(o Options) ([]Result, *Stats, error) { return SelfJoinCorpus(pc, o) }},
		{"JoinCorpus", func(o Options) ([]Result, *Stats, error) { return JoinCorpus(pc, probes, o) }},
	}
	for _, e := range entries {
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			on := DefaultOptions()
			on.Threshold = 0.25
			on.Dedup = dedup
			off := on
			off.DisableSIMD = true
			got, gst, err := e.join(on)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := e.join(off)
			if err != nil {
				t.Fatal(err)
			}
			label := e.name + " " + dedup.String()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: staged join differs from scalar (%d vs %d results)", label, len(got), len(want))
			}
			if gst.Verified == 0 || len(got) == 0 {
				t.Fatalf("%s: nothing verified (%d) or joined (%d); pick better seeds", label, gst.Verified, len(got))
			}
			checkSIMDStats(t, label, gst, wst)
		}
	}
}

// denseCorpus builds n strings of 1-4 tokens of 1-4 letters over a
// three-letter alphabet: nearly every pair is a candidate, cost matrices
// are full of equal cells, and token counts differ within most pairs.
func denseCorpus(rng *rand.Rand, n int) *token.Corpus {
	const alpha = "abc"
	strs := make([]token.TokenizedString, n)
	for i := range strs {
		toks := make([]string, 1+rng.Intn(4))
		for j := range toks {
			b := make([]byte, 1+rng.Intn(4))
			for l := range b {
				b[l] = alpha[rng.Intn(len(alpha))]
			}
			toks[j] = string(b)
		}
		strs[i] = token.New(toks)
	}
	return token.BuildCorpusFromTokenized(strs)
}

// TestSIMDEquivalenceOrientation: on a corpus where the verdict's Pruned
// flag depends on which string of the pair is the probe (tied cost cells,
// unequal token counts), the staged path reproduces the scalar results
// and every funnel counter. A reducer that staged its p < k partners with
// the key as the probe would keep the results and miss BudgetPruned.
func TestSIMDEquivalenceOrientation(t *testing.T) {
	c := denseCorpus(rand.New(rand.NewSource(2718)), 160)
	for _, align := range []Aligning{GreedyAligning, HungarianAligning} {
		const threshold = 0.5
		// The property under test must be present in the corpus.
		v := core.Verifier{Greedy: align == GreedyAligning}
		sensitive := 0
		for a := 0; a < c.NumStrings(); a++ {
			for b := a + 1; b < c.NumStrings(); b++ {
				_, _, p1 := v.Verify(c.Strings[a], c.Strings[b], threshold)
				_, _, p2 := v.Verify(c.Strings[b], c.Strings[a], threshold)
				if p1 != p2 {
					sensitive++
				}
			}
		}
		if sensitive == 0 {
			t.Fatalf("%v: no pair's Pruned flag depends on the orientation; pick a better corpus", align)
		}
		for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
			on := Options{Threshold: threshold, Aligning: align, Dedup: dedup}
			off := on
			off.DisableSIMD = true
			got, gst, err := SelfJoin(c, on)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := SelfJoin(c, off)
			if err != nil {
				t.Fatal(err)
			}
			label := align.String() + " " + dedup.String()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: staged self-join differs from scalar (%d vs %d results)", label, len(got), len(want))
			}
			checkSIMDStats(t, label, gst, wst)
		}
		t.Logf("%v: %d orientation-sensitive pairs", align, sensitive)
	}
}

// TestSIMDEquivalenceSlabBoundary: with several reduce workers and more
// verified pairs than their verdict slabs hold at once, no staged verdict
// is lost or duplicated. Engines never outnumber reduce workers, so some
// engine must harvest its slab mid-job and fill it again. `make race`
// runs this under the race detector.
func TestSIMDEquivalenceSlabBoundary(t *testing.T) {
	const workers = 4
	c := denseCorpus(rand.New(rand.NewSource(1618)), 320)
	for _, dedup := range []Dedup{GroupOnOneString, GroupOnBothStrings} {
		on := Options{Threshold: 0.4, Dedup: dedup, Parallelism: workers}
		off := on
		off.DisableSIMD = true
		got, gst, err := SelfJoin(c, on)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, err := SelfJoin(c, off)
		if err != nil {
			t.Fatal(err)
		}
		if gst.Verified <= workers*slabSize {
			t.Fatalf("%v: only %d verified pairs, need more than %d to wrap a slab", dedup, gst.Verified, workers*slabSize)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: staged self-join differs from scalar (%d vs %d results)", dedup, len(got), len(want))
		}
		if int64(len(got)) != gst.Results {
			t.Fatalf("%v: %d results returned, %d counted", dedup, len(got), gst.Results)
		}
		checkSIMDStats(t, dedup.String(), gst, wst)
	}
}
