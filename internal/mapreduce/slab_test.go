package mapreduce

import (
	"math"
	"runtime"
	"slices"
	"strconv"
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
// output is not kept alive by the slabs the job hands back to the pools.
// The test holds every pooled slab of the two pointer types while it
// waits — the output buffers by draining the drift pool, the map tasks'
// value buffers and the gathered value slabs by taking their size
// classes — so only clearing them before they went back can free the
// payloads.
func TestSlabReuseReleasesPointers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: one pool shard to drain
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
	emit := func(par int) {
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
	// A pool may drop what is put back (the race detector makes it drop a
	// share at random), so run the jobs until some slab is there to hold.
	var held slab.Loans // never returned
	drifted := 0
	for try := 0; drifted == 0 && try < 20; try++ {
		emit(1)
		emit(2)
		drifted = drain[*payload](&held)
		for i := 0; i < 4; i++ {
			slab.Take[*payload](&held, len(input))   // the gathered values
			slab.Take[*payload](&held, len(input)/3) // a map task's values
		}
	}
	if drifted == 0 {
		t.Fatal("no *payload output buffer went back to its pool")
	}
	for i := 0; i < 50 && freed.Load() < made.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(&held)
	if f, m := freed.Load(), made.Load(); f < m {
		t.Fatalf("%d of %d emitted payloads are still reachable after Run returned", m-f, m)
	}
}

// drain takes the slabs of element type T out of their drift pool onto
// held and counts the ones with room: it asks a fixed number of times,
// since the pool hands out an empty slab when it has none.
func drain[T any](held *slab.Loans) int {
	n := 0
	for i := 0; i < 64; i++ {
		var s []T
		if slab.Lend(held, &s, 0); cap(s) > 0 {
			n++
		}
	}
	return n
}
