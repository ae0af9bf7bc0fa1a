package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// group is what the property test's reducer emits: its key and the values
// exactly as the engine handed them over.
type group[K Key] struct {
	Key  K
	Vals []int
}

// refJob is the reference the sort-based shuffle is checked against: the
// map[K][]V group-by Run used to be, run serially, with the accounting
// spelled out from the Run doc comment: one reduce cost per key, in
// ascending key order, summed in that order.
func refJob[K Key](input [][]K, mapTasks int) ([]group[K], *Stats) {
	st := &Stats{MapRecordsIn: int64(len(input))}
	groups := make(map[K][]int)
	for _, sp := range splitRanges(len(input), mapTasks) {
		cost := 0.0
		for i := sp[0]; i < sp[1]; i++ {
			for j, k := range input[i] {
				groups[k] = append(groups[k], i*100+j)
			}
			cost += 1 + float64(len(input[i])) + 0.5
			st.MapRecordsOut += int64(len(input[i]))
		}
		st.MapTaskCosts = append(st.MapTaskCosts, cost)
		st.MapWork += cost
	}
	st.ShuffleRecords = st.MapRecordsOut
	st.ReduceKeys = int64(len(groups))
	st.OutRecords = int64(len(groups))
	var out []group[K]
	for k, vs := range groups {
		out = append(out, group[K]{k, vs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for _, g := range out {
		c := float64(len(g.Vals)) + 1 + float64(len(g.Vals))*0.25
		st.ReduceTaskCosts = append(st.ReduceTaskCosts, c)
		st.ReduceWork += c
	}
	return out, st
}

// runJob is refJob on the engine: record i emits its keys in order with
// values that encode (record, emission), map tasks are charged 0.5 extra
// per record and reduce keys 0.25 per value.
func runJob[K Key](input [][]K, mapTasks, parallelism int) ([]group[K], *Stats) {
	ids := make([]int, len(input))
	for i := range ids {
		ids[i] = i
	}
	out, st := Run(Config{MapTasks: mapTasks, Parallelism: parallelism}, ids,
		func(i int, ctx *MapCtx[K, int]) {
			for j, k := range input[i] {
				ctx.Emit(k, i*100+j)
			}
			ctx.AddCost(0.5)
		},
		func(k K, vs []int, ctx *ReduceCtx[group[K]]) {
			ctx.Emit(group[K]{k, slices.Clone(vs)})
			ctx.AddCost(float64(len(vs)) * 0.25)
			_ = append(vs, -1) // must not reach the next key's values
		},
	)
	return out, st
}

// shuffleCase is one job of the shuffle property tests: records that
// each emit 0-3 keys.
type shuffleCase[K Key] struct {
	label    string
	input    [][]K
	mapTasks int
}

// shuffleCases draws the property tests' jobs, keys from pool.
func shuffleCases[K Key](pool []K) []shuffleCase[K] {
	rng := rand.New(rand.NewSource(int64(len(pool))))
	var cases []shuffleCase[K]
	for _, shape := range []struct{ records, mapTasks int }{
		{0, 4}, {1, 1}, {3, 16}, {40, 7}, {700, 8}, {700, 1},
	} {
		input := make([][]K, shape.records)
		for i := range input {
			for j := rng.Intn(4); j > 0; j-- {
				input[i] = append(input[i], pool[rng.Intn(len(pool))])
			}
		}
		label := fmt.Sprintf("%T keys, %d records, %d map tasks", pool[0], shape.records, shape.mapTasks)
		cases = append(cases, shuffleCase[K]{label, input, shape.mapTasks})
	}
	return cases
}

// checkShuffle requires the engine to agree with the reference on the
// groups (keys ascending, values in emission order) and on every Stats
// field, and with itself — output order included — across Parallelism 1
// and 8.
func checkShuffle[K Key](t *testing.T, pool []K) {
	t.Helper()
	for _, sc := range shuffleCases(pool) {
		input, label := sc.input, sc.label
		want, wantSt := refJob(input, sc.mapTasks)
		got, gotSt := runJob(input, sc.mapTasks, 1)
		if !sameGroups(got, want) {
			t.Fatalf("%s: groups differ from the reference\n got  %v\n want %v", label, got, want)
		}
		if !sameStats(gotSt, wantSt) {
			t.Fatalf("%s: stats differ from the reference\n got  %+v\n want %+v", label, gotSt, wantSt)
		}
		got8, st8 := runJob(input, sc.mapTasks, 8)
		if !sameGroups(got8, got) || !sameStats(st8, gotSt) {
			t.Fatalf("%s: Parallelism 8 changed the output order or the stats", label)
		}
	}
}

func sameGroups[K Key](a, b []group[K]) bool {
	return slices.EqualFunc(a, b, func(x, y group[K]) bool { return x.Key == y.Key && slices.Equal(x.Vals, y.Vals) })
}

// sameStats compares everything but the wall clocks, work totals with ==.
func sameStats(a, b *Stats) bool {
	return a.MapRecordsIn == b.MapRecordsIn && a.MapRecordsOut == b.MapRecordsOut &&
		a.ShuffleRecords == b.ShuffleRecords && a.ReduceKeys == b.ReduceKeys && a.OutRecords == b.OutRecords &&
		slices.Equal(a.MapTaskCosts, b.MapTaskCosts) && slices.Equal(a.ReduceTaskCosts, b.ReduceTaskCosts) &&
		a.MapWork == b.MapWork && a.ReduceWork == b.ReduceWork
}

func TestShuffleMatchesReferenceGroupBy(t *testing.T) {
	dense := make([]int, 300)
	for i := range dense {
		dense[i] = i
	}
	checkShuffle(t, dense)
	checkShuffle(t, []int32{0, -1, 1, math.MinInt32, math.MaxInt32, -70000, 70000, 5, -5})
	checkShuffle(t, []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1, 1 << 32, 0xdeadbeefcafe})
	checkShuffle(t, []int8{-128, -1, 0, 1, 127})
	checkShuffle(t, []uint8{0, 255})
}

// BenchmarkShuffle is a profiling entry point for the shuffle, not a
// gate: one job whose map and reduce functions do nothing, so that what
// is left is buffering, sorting, gathering and dispatch.
func BenchmarkShuffle(b *testing.B) {
	for _, n := range []int{2600, 20000, 80000} {
		input := make([]uint64, n)
		for i := range input {
			input[i] = uint64(i)
		}
		b.Run(fmt.Sprintf("dense-int32/%d", n), func(b *testing.B) {
			benchShuffle(b, input, func(x uint64) int32 { return int32(x % uint64(n/8+1)) })
		})
		b.Run(fmt.Sprintf("hashed-uint64/%d", n), func(b *testing.B) {
			benchShuffle(b, input, func(x uint64) uint64 { return (x % uint64(n/8+1)) * 0x9E3779B97F4A7C15 })
		})
	}
}

var benchSink int

func benchShuffle[K Key](b *testing.B, input []uint64, key func(uint64) K) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, _ := Run(Config{}, input,
			func(x uint64, ctx *MapCtx[K, uint32]) { ctx.Emit(key(x), uint32(x)) },
			func(_ K, vs []uint32, ctx *ReduceCtx[int]) { ctx.Emit(len(vs)) },
		)
		benchSink += len(out)
	}
}
