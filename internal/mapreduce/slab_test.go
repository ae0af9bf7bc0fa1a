package mapreduce

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/slab"
)

// interfere runs a job that shares no key, value or output type with the
// shuffle property tests and differs from them in size, so that the next
// job starts on slabs of another job's size and contents: the sort's
// entry buffers are common to every job. It checks its own answer too.
func interfere(t *testing.T, n, par int) {
	t.Helper()
	input := make([]uint32, n)
	for i := range input {
		input[i] = uint32(i)
	}
	out, _ := Run(Config{MapTasks: 5, Parallelism: par}, input,
		func(x uint32, ctx *MapCtx[uint16, string]) {
			ctx.Emit(uint16(x%97), strconv.Itoa(int(x)))
			ctx.Emit(uint16(x%31), "x")
		},
		func(k uint16, vs []string, ctx *ReduceCtx[[2]float32]) {
			ctx.Emit([2]float32{float32(k), float32(len(vs))})
		},
	)
	want := 0
	for _, o := range out {
		want += int(o[1])
	}
	if want != 2*n {
		t.Fatalf("interfering job of %d records grouped %d values, want %d", n, want, 2*n)
	}
}

// TestSlabReuseAcrossJobs runs every case of TestShuffleMatchesReferenceGroupBy
// and TestDeterministicAcrossParallelism again on recycled slabs —
// interleaved with a job of other types and another size, at Parallelism
// 1-4 — and requires the outputs and Stats of the first run.
func TestSlabReuseAcrossJobs(t *testing.T) {
	dense := make([]int, 300)
	for i := range dense {
		dense[i] = i
	}
	checkReuse(t, dense)
	checkReuse(t, []int32{0, -1, 1, math.MinInt32, math.MaxInt32, -70000, 70000, 5, -5})
	checkReuse(t, []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1, 1 << 32, 0xdeadbeefcafe})
	checkReuse(t, []int8{-128, -1, 0, 1, 127})
	checkReuse(t, []uint8{0, 255})

	want, wantSt := modSumJob(1)
	for par := 1; par <= 4; par++ {
		interfere(t, 3000/par, par)
		got, st := modSumJob(par)
		if !slices.Equal(got, want) || !sameStats(st, wantSt) {
			t.Fatalf("mod-13 sum at Parallelism %d after another job: got %v %+v, want %v %+v", par, got, st, want, wantSt)
		}
	}
}

func checkReuse[K Key](t *testing.T, pool []K) {
	t.Helper()
	for _, sc := range shuffleCases(pool) {
		want, wantSt := runJob(sc.input, sc.mapTasks, 1)
		for par := 1; par <= 4; par++ {
			interfere(t, []int{50, 4000, 1, 900}[par-1], par)
			got, st := runJob(sc.input, sc.mapTasks, par)
			if !sameGroups(got, want) || !sameStats(st, wantSt) {
				t.Fatalf("%s at Parallelism %d after another job: output or stats differ from the first run\n got  %v %+v\n want %v %+v",
					sc.label, par, got, st, want, wantSt)
			}
		}
	}
}

// payload is big enough to get an allocation of its own, so that its
// finalizer runs once it is unreachable.
type payload struct{ buf [64]byte }

// TestSlabReuseReleasesPointers: a pointer a job emitted as a value or an
// output is not kept alive by the slabs the job hands back to their free
// lists. The test takes every idle slab of the pointer type back out and
// holds it while it waits, so only clearing the slabs before they went
// back can free the payloads. Collection is off until the slabs are taken
// back, so that no collection ages them out first.
func TestSlabReuseReleasesPointers(t *testing.T) {
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	var made, freed atomic.Int64
	obj := func() *payload {
		p := new(payload)
		made.Add(1)
		runtime.SetFinalizer(p, func(*payload) { freed.Add(1) })
		return p
	}
	input := make([]int, 500)
	for i := range input {
		input[i] = i
	}
	for par := 1; par <= 2; par++ {
		// As values: the reducer only counts them.
		out, _ := Run(Config{MapTasks: 3, Parallelism: par}, input,
			func(i int, ctx *MapCtx[int, *payload]) { ctx.Emit(i%7, obj()) },
			func(_ int, vs []*payload, ctx *ReduceCtx[int]) { ctx.Emit(len(vs)) },
		)
		if len(out) != 7 {
			t.Fatalf("value job returned %d groups, want 7", len(out))
		}
		// As outputs: the caller drops the result.
		res, _ := Run(Config{MapTasks: 3, Parallelism: par}, input,
			func(i int, ctx *MapCtx[int, int]) { ctx.Emit(i%11, i) },
			func(_ int, vs []int, ctx *ReduceCtx[*payload]) {
				for range vs {
					ctx.Emit(obj())
				}
			},
		)
		if len(res) != len(input) {
			t.Fatalf("output job returned %d outputs, want %d", len(res), len(input))
		}
	}
	var held slab.Loans // never returned
	if drain[*payload](&held) == 0 {
		t.Fatal("no *payload slab went back to its free list")
	}
	debug.SetGCPercent(gcPercent)
	for i := 0; i < 50 && freed.Load() < made.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(&held)
	if f, m := freed.Load(), made.Load(); f < m {
		t.Fatalf("%d of %d emitted payloads are still reachable after Run returned", m-f, m)
	}
}

// drain takes every idle slab of element type T with a capacity up to
// 4096 onto held, and counts the ones it can tell from new slabs: a
// request gets an idle slab of capacity up to four times its own, so a
// few requests at each power of two reach every capacity, and a new slab
// has exactly the capacity asked for.
func drain[T any](held *slab.Loans) int {
	n := 0
	for k := 1; k <= 4096; k *= 2 {
		for range 8 {
			var s []T
			if slab.Lend(held, &s, k); cap(s) != k {
				n++
			}
		}
	}
	return n
}

// TestLearnedSizesStayWithinUse: a job's buffers are lent at the rates its
// last run emitted at, but never above the most that run emitted. A small
// run whose one key pairs up 200 values (100 records per input, 199
// outputs per value) is followed, under the same name, by a run of 20,000
// distinct keys; at those rates its buffers would be lent at a million
// records per map task and two million outputs per reduce worker. Each
// must instead get at most four times (the free lists' best fit) the
// small run's largest task or worker output.
func TestLearnedSizesStayWithinUse(t *testing.T) {
	cfg := Config{Name: "learned-sizes-within-use", MapTasks: 2, Parallelism: 2}
	pairs, _ := Run(cfg, make([]int, 2),
		func(_ int, ctx *MapCtx[int, int]) {
			for i := range 100 {
				ctx.Emit(0, i)
			}
		},
		func(_ int, vs []int, ctx *ReduceCtx[int]) {
			for i := range vs {
				for range vs[i+1:] {
					ctx.Emit(i)
				}
			}
		},
	)
	if len(pairs) != 200*199/2 {
		t.Fatalf("dense run emitted %d pairs, want %d", len(pairs), 200*199/2)
	}
	mostTask, mostWorker := 100, len(pairs)

	var mu sync.Mutex
	var mapCap, outCap int
	sparse := make([]int, 20000)
	for i := range sparse {
		sparse[i] = i
	}
	out, _ := Run(cfg, sparse,
		func(x int, ctx *MapCtx[int, int]) {
			if len(ctx.keys) == 0 {
				mu.Lock()
				mapCap = max(mapCap, cap(ctx.keys), cap(ctx.vals))
				mu.Unlock()
			}
			ctx.Emit(x, x)
		},
		func(_ int, vs []int, ctx *ReduceCtx[int]) {
			if len(ctx.out) == 0 {
				mu.Lock()
				outCap = max(outCap, cap(ctx.out))
				mu.Unlock()
			}
			ctx.Emit(vs[0])
		},
	)
	if len(out) != len(sparse) {
		t.Fatalf("sparse run emitted %d outputs, want %d", len(out), len(sparse))
	}
	if mapCap > 4*mostTask {
		t.Errorf("a map task's buffers were lent with capacity %d, above 4 × the %d records the last run's largest task emitted", mapCap, mostTask)
	}
	if outCap > 4*mostWorker {
		t.Errorf("a reduce worker's buffer was lent with capacity %d, above 4 × the %d outputs the last run's largest worker emitted", outCap, mostWorker)
	}
}
