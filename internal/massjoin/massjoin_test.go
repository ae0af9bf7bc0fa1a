package massjoin

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/passjoin"
	"repro/internal/strdist"
)

func randStr(rng *rand.Rand, minLen, maxLen int) []rune {
	n := minLen + rng.Intn(maxLen-minLen+1)
	s := make([]rune, n)
	for i := range s {
		s[i] = rune('a' + rng.Intn(4))
	}
	return s
}

func corpusWithNearDuplicates(rng *rand.Rand, n int) [][]rune {
	var out [][]rune
	for len(out) < n {
		base := randStr(rng, 3, 10)
		out = append(out, base)
		for k := 0; k < rng.Intn(3) && len(out) < n; k++ {
			c := append([]rune(nil), base...)
			switch rng.Intn(3) {
			case 0:
				c[rng.Intn(len(c))] = rune('a' + rng.Intn(4))
			case 1:
				p := rng.Intn(len(c) + 1)
				c = append(c[:p], append([]rune{rune('a' + rng.Intn(4))}, c[p:]...)...)
			case 2:
				if len(c) > 1 {
					p := rng.Intn(len(c))
					c = append(c[:p], c[p+1:]...)
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// TestSelfJoinMatchesBruteForce runs the self-join under both substring
// windows on random corpora and on the edge cases: identical strings at
// T = 0, a single string, and edit thresholds at or above the token length.
func TestSelfJoinMatchesBruteForce(t *testing.T) {
	type input struct {
		toks      [][]rune
		threshold float64
	}
	ins := []input{
		{[][]rune{[]rune("anna"), []rune("anna"), []rune("anna")}, 0},
		{[][]rune{[]rune("a")}, 0.5},
		{[][]rune{[]rune("ab"), []rune("cd"), []rune("ab")}, 0.7},
	}
	rng := rand.New(rand.NewSource(61))
	for _, threshold := range []float64{0.05, 0.1, 0.225} {
		for iter := 0; iter < 6; iter++ {
			ins = append(ins, input{corpusWithNearDuplicates(rng, 60), threshold})
		}
	}
	for _, in := range ins {
		want := bruteJoin(in.toks, nil, in.threshold)
		for _, mm := range []bool{true, false} {
			got, pipe := SelfJoinNLD(in.toks, in.threshold, Config{MultiMatchAware: mm})
			if !slices.Equal(got, want) {
				t.Fatalf("T=%v mm=%v: got %d pairs, brute force %d:\n got  %v\n want %v",
					in.threshold, mm, len(got), len(want), got, want)
			}
			if len(pipe.Jobs) != 2 {
				t.Fatalf("pipeline must have 2 jobs, got %d", len(pipe.Jobs))
			}
		}
	}
}

func TestBipartiteJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, threshold := range []float64{0.1, 0.25} {
		r := corpusWithNearDuplicates(rng, 40)
		p := corpusWithNearDuplicates(rng, 40)
		want := bruteJoin(r, p, threshold)
		for _, mm := range []bool{true, false} {
			got, _ := JoinNLD(r, p, threshold, Config{MultiMatchAware: mm})
			if !slices.Equal(got, want) {
				t.Fatalf("T=%v mm=%v: got %d pairs, brute force %d:\n got  %v\n want %v",
					threshold, mm, len(got), len(want), got, want)
			}
		}
	}
}

// TestMultiMatchAwareGeneratesFewerCandidates: both substring windows are
// lossless, and the multi-match-aware one (Pass-Join Lemma 4) shuffles no
// more Job-1 records than the shift window.
func TestMultiMatchAwareGeneratesFewerCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	toks := corpusWithNearDuplicates(rng, 400)
	mm, mmPipe := SelfJoinNLD(toks, 0.2, Config{MultiMatchAware: true})
	shift, shiftPipe := SelfJoinNLD(toks, 0.2, Config{MultiMatchAware: false})
	if !slices.Equal(mm, shift) {
		t.Fatalf("the windows disagree: %d pairs vs %d", len(mm), len(shift))
	}
	if m, s := mmPipe.Jobs[0].ShuffleRecords, shiftPipe.Jobs[0].ShuffleRecords; m > s {
		t.Errorf("multi-match-aware window shuffles %d records, shift window %d", m, s)
	}
}

func TestPipelineStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	toks := corpusWithNearDuplicates(rng, 100)
	_, pipe := SelfJoinNLD(toks, 0.2, DefaultConfig())
	if pipe.TotalWork() <= 0 {
		t.Fatal("pipeline work must be positive")
	}
	if pipe.Jobs[0].ShuffleRecords == 0 {
		t.Fatal("candidate generation must shuffle records")
	}
	if pipe.Jobs[1].ReduceKeys == 0 {
		t.Fatal("verification must have reduce keys")
	}
}

func TestEmptyTokenSpace(t *testing.T) {
	got, pipe := SelfJoinNLD(nil, 0.1, DefaultConfig())
	if len(got) != 0 || len(pipe.Jobs) != 2 {
		t.Fatalf("empty input: %v pairs, %d jobs", got, len(pipe.Jobs))
	}
}

// bruteJoin is the quadratic NLD join of r against p (p == nil: the
// self-join of r) in massjoin's output orientation and order.
func bruteJoin(r, p [][]rune, t float64) []passjoin.Pair {
	var out []passjoin.Pair
	self := p == nil
	if self {
		p = r
	}
	for i := range r {
		for j := range p {
			// Self-join: the shorter token is A, ties by id.
			if self && (len(r[i]) > len(p[j]) || len(r[i]) == len(p[j]) && i >= j) {
				continue
			}
			d := strdist.LevenshteinRunes(r[i], p[j])
			if strdist.WithinNLD(d, len(r[i]), len(p[j]), t) {
				out = append(out, passjoin.Pair{A: i, B: j, LD: d})
			}
		}
	}
	return out
}

// TestFingerprintCollisionsAreHarmless narrows the Job-1 fingerprint to 4
// bits, so that every reduce group is a merger of hundreds of unrelated
// (indexLen, probeLen, seg, chunk) keys, tokens of equal and of different
// lengths among them, and requires both joins to still equal brute force.
// Only the number of reduce keys and of candidates may move: a collision
// adds candidates, Job 2 verifies each exactly, and the reducer's
// orientation rule reads token lengths, not the key.
func TestFingerprintCollisionsAreHarmless(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for _, threshold := range []float64{0.1, 0.2, 0.3} {
		r := corpusWithNearDuplicates(rng, 120)
		p := corpusWithNearDuplicates(rng, 80)
		for _, self := range []bool{true, false} {
			join := func() ([]passjoin.Pair, *mapreduce.Pipeline) {
				if self {
					return SelfJoinNLD(r, threshold, DefaultConfig())
				}
				return JoinNLD(r, p, threshold, DefaultConfig())
			}
			full, fullPipe := join()
			fpMask = 0xf
			narrow, narrowPipe := join()
			fpMask = ^uint64(0)

			var probe [][]rune // nil: the self-join
			if !self {
				probe = p
			}
			brute := bruteJoin(r, probe, threshold)
			if len(brute) == 0 {
				t.Fatalf("T=%v self=%v: no similar pairs, the corpus tests nothing", threshold, self)
			}
			for name, got := range map[string][]passjoin.Pair{"full": full, "narrow": narrow} {
				if !slices.Equal(got, brute) {
					t.Fatalf("T=%v self=%v: %s fingerprints give %d pairs, brute force %d:\n got  %v\n want %v",
						threshold, self, name, len(got), len(brute), got, brute)
				}
			}

			fj, nj := fullPipe.Jobs, narrowPipe.Jobs
			if nj[0].ReduceKeys > 16 || nj[0].ReduceKeys >= fj[0].ReduceKeys {
				t.Fatalf("T=%v self=%v: %d reduce keys under a 4-bit mask (%d at full width)", threshold, self, nj[0].ReduceKeys, fj[0].ReduceKeys)
			}
			if nj[0].OutRecords <= fj[0].OutRecords {
				t.Fatalf("T=%v self=%v: merged groups produced %d candidates, full width %d", threshold, self, nj[0].OutRecords, fj[0].OutRecords)
			}
			if nj[0].MapRecordsIn != fj[0].MapRecordsIn || nj[0].ShuffleRecords != fj[0].ShuffleRecords || nj[0].MapWork != fj[0].MapWork {
				t.Fatalf("T=%v self=%v: the map side moved:\n narrow %v\n full   %v", threshold, self, nj[0], fj[0])
			}
			if nj[1].OutRecords != fj[1].OutRecords {
				t.Fatalf("T=%v self=%v: verify emitted %d pairs, full width %d", threshold, self, nj[1].OutRecords, fj[1].OutRecords)
			}
		}
	}
}

// TestFingerprintSeparatesNeighbours: at full width, keys that differ in
// one field or one rune — the way real chunk keys differ — do not collide.
// A collision would be harmless to the answer but would move ReduceKeys and
// the candidate count, which the simulated-cluster figures read.
func TestFingerprintSeparatesNeighbours(t *testing.T) {
	seen := make(map[uint64][5]int)
	for il := 1; il <= 12; il++ {
		for pl := il; pl <= il+3; pl++ {
			for seg := 0; seg < 4; seg++ {
				for c1 := 'a'; c1 <= 'z'; c1++ {
					for c2 := 'a' - 1; c2 <= 'z'; c2++ { // 'a'-1: the one-rune chunk
						chunk := []rune{c1, c2}
						if c2 < 'a' {
							chunk = chunk[:1]
						}
						id := [5]int{il, pl, seg, int(c1), int(c2)}
						f := fingerprint(il, pl, seg, chunk)
						if other, dup := seen[f]; dup {
							t.Fatalf("fingerprint %x for both %v and %v", f, other, id)
						}
						seen[f] = id
					}
				}
			}
		}
	}
}

// countCtx is an emitter that only counts.
type countCtx struct{ n int }

func (c *countCtx) Emit(uint64, uint32) { c.n++ }

// TestEmitAllocatesNothing: producing a token's Job-1 records — segments
// for every compatible probe length, substrings for every compatible index
// length — computes segment bounds and fingerprints in place: no partition
// slice, no chunk string.
func TestEmitAllocatesNothing(t *testing.T) {
	const threshold = 0.3
	rec := tokenRec{id: 3, r: []rune("metwally")}
	plans := lenPlans(threshold, len(rec.r))
	ctx := &countCtx{}
	for _, self := range []bool{true, false} {
		allocs := testing.AllocsPerRun(100, func() {
			emitSegments(rec, plans[len(rec.r)], self, ctx)
			emitSubstrings(rec, plans[len(rec.r)], self, true, ctx)
		})
		if allocs != 0 {
			t.Errorf("selfJoin=%v: %v allocations per token", self, allocs)
		}
	}
	if ctx.n == 0 {
		t.Fatal("nothing was emitted")
	}
}
