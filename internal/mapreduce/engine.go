// Package mapreduce is the paper's Sec. III-A substrate: an in-process
// MapReduce engine with the map/shuffle/reduce contract
//
//	map    : <key1, value1>   -> [<key2, value2>]
//	reduce : <key2, [value2]> -> [value3]
//
// executed by goroutine worker pools, plus a simulated-cluster cost model
// (cluster.go) that converts per-task work measurements into the wall-clock
// a shared-nothing cluster of m machines would need. The engine is the
// execution layer for MassJoin, the TSJ pipeline and the HMJ baseline.
//
// Shuffle keys are fixed-size integers (Key). The shuffle is a sort, not a
// hash table: every map task appends to its own buffer, the job's records
// are radix-sorted by key into one slab, a reduce group is a run of equal
// keys, and groups are reduced — and their outputs returned — in ascending
// key order, so a job's output and Stats are the same at any Parallelism.
// Stats.MapWall covers the map functions plus this shuffle; ReduceWall is
// the reduce functions.
//
// A job's slabs are recycled, across the jobs of a pipeline and across
// pipelines: the map tasks' key and value buffers, the gathered value
// slab, the sort's entry buffers and the reduce workers' output buffers
// come from the shared free lists of package slab and go back when Run
// returns. A reducer's values therefore live only for the duration of its
// call, and a pipeline allocates a bounded number of objects once its
// slabs have grown to size. The []O Run returns is the caller's, freshly
// allocated.
//
// The paper ran on 1,000 physical machines; we cannot. Every job therefore
// records fine-grained task costs (map work per split, reduce work per key,
// records shuffled), and the Cluster model schedules those tasks onto m
// simulated machines. The paper's scaling figures turn on per-job overhead
// and task skew; the model charges the first as a calibrated constant, and
// the second comes from task costs measured in the real execution.
package mapreduce

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/radix"
	"repro/internal/slab"
)

// Config controls one MapReduce job execution.
type Config struct {
	// Name identifies the job in stats output.
	Name string
	// MapTasks is the number of input splits (paper: mappers). Defaults
	// to 4*GOMAXPROCS, mimicking many small splits on a real cluster.
	MapTasks int
	// Parallelism caps concurrently running worker goroutines. Defaults
	// to GOMAXPROCS.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.MapTasks <= 0 {
		c.MapTasks = 4 * runtime.GOMAXPROCS(0)
	}
	c.Parallelism = c.Workers()
	return c
}

// Workers is the number of worker goroutines Run starts: Parallelism, or
// GOMAXPROCS when it is unset. Every ReduceCtx.Worker is below it.
func (c Config) Workers() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// Key is the set of shuffle key types: fixed-size integers. The shuffle
// sorts keys instead of hashing them, so a job whose natural key is a
// string or a struct keys on a packing or a fingerprint of it (see
// massjoin).
type Key interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// MapCtx is handed to map functions: Emit produces an intermediate
// <key2, value2> record; AddCost charges extra work units beyond the
// default per-record accounting (used by CPU-heavy mappers such as HMJ's
// centroid assignment). One MapCtx is the output buffer of one map task;
// its buffers are recycled slabs, reused by later jobs once Run returns.
type MapCtx[K Key, V any] struct {
	keys []K
	vals []V
	cost float64
	bufs slab.Loans // keys and vals
}

// Emit outputs an intermediate key/value pair.
func (c *MapCtx[K, V]) Emit(k K, v V) {
	c.keys = append(c.keys, k)
	c.vals = append(c.vals, v)
}

// AddCost charges additional work units to the current map task.
func (c *MapCtx[K, V]) AddCost(units float64) { c.cost += units }

// ReduceCtx is handed to reduce functions: Emit produces an output record;
// AddCost charges extra work units to the current key's task (used by
// verification reducers whose cost is dominated by distance computations,
// not record counts). One ReduceCtx is the output buffer of one reduce
// worker, a recycled slab; Run copies the outputs out of it before it
// returns.
type ReduceCtx[O any] struct {
	out    []O
	cost   float64
	worker int
	bufs   slab.Loans // out; it also pads a worker's context to a cache line
}

// Worker reports which of the job's Config.Workers goroutines runs the
// reduce call, so a reducer may keep per-worker state that no other
// goroutine touches while the job runs.
func (c *ReduceCtx[O]) Worker() int { return c.worker }

// Emit outputs a final record.
func (c *ReduceCtx[O]) Emit(o O) { c.out = append(c.out, o) }

// AddCost charges additional work units to the current reduce task.
func (c *ReduceCtx[O]) AddCost(units float64) { c.cost += units }

// Mapper transforms one input record into intermediate key/value pairs.
type Mapper[I any, K Key, V any] func(item I, ctx *MapCtx[K, V])

// Reducer folds all values that share a key into output records. values
// holds them in emission order (input order, then Emit order); it is the
// reducer's to reorder, and appending to it cannot reach a neighbour.
// values is valid only for the duration of the call: it is a run of the
// job's gathered slab, which later jobs reuse, so a reducer that keeps
// values past its return must copy them.
type Reducer[K Key, V any, O any] func(key K, values []V, ctx *ReduceCtx[O])

// reduceBatch is how many consecutive keys a reduce worker claims at once.
const reduceBatch = 64

// learned is what the last run of a job emitted: the most records per
// input of any map task and the most records any one task emitted, and the
// most outputs per value of its even share of any reduce worker and the
// most outputs any one worker emitted. The next run of the job lends its
// buffers at the rate, capped at the most: a join's jobs emit from 0.1 to
// 25 of either, which nothing known beforehand shows, and a rate learned
// on a small dense input must not size a large sparse input's buffers
// beyond what the job ever used.
type learned struct {
	perInput, perValue   float64
	mostTask, mostWorker int
}

var lastRun sync.Map // job name -> learned

// fit estimates what n inputs or values emit at rate per, capped at most.
func fit(n, per float64, most int) int { return int(min(n*per+1, float64(most))) }

// Run executes one MapReduce job over the input and returns the outputs
// together with the job's task-cost statistics. Keys are reduced in
// ascending key order and the outputs are concatenated in that order, so
// a job's output and statistics do not depend on Parallelism or on
// scheduling.
//
// Default cost accounting mirrors the dominant terms on a real cluster:
// each map task is charged 1 unit per input record plus 1 per emitted
// record; each reduce key is charged 1 unit per grouped value plus 1 per
// emitted output. AddCost layers algorithm-specific work on top.
func Run[I any, K Key, V any, O any](
	cfg Config,
	input []I,
	mapFn Mapper[I, K, V],
	reduceFn Reducer[K, V, O],
) ([]O, *Stats) {
	cfg = cfg.withDefaults()
	st := &Stats{Name: cfg.Name}
	got, _ := lastRun.LoadOrStore(cfg.Name, learned{perInput: 1, mostTask: math.MaxInt, mostWorker: math.MaxInt})
	last, next := got.(learned), learned{}
	start := time.Now()
	defer func() {
		st.WallTime = time.Since(start)
		st.ReduceWall = st.WallTime - st.MapWall
	}()

	// ---- Map phase ------------------------------------------------------
	splits := splitRanges(len(input), cfg.MapTasks)
	tasks := make([]MapCtx[K, V], len(splits))
	st.MapTaskCosts = make([]float64, len(splits))

	each(cfg.Parallelism, len(splits), func(_, si int) {
		ctx := &tasks[si]
		est := fit(float64(splits[si][1]-splits[si][0]), last.perInput, last.mostTask)
		slab.Lend(&ctx.bufs, &ctx.keys, est)
		slab.Lend(&ctx.bufs, &ctx.vals, est)
		cost := 0.0
		for i := splits[si][0]; i < splits[si][1]; i++ {
			ctx.cost = 0
			before := len(ctx.keys)
			mapFn(input[i], ctx)
			cost += 1 + float64(len(ctx.keys)-before) + ctx.cost
		}
		st.MapTaskCosts[si] = cost
	})

	n := 0
	for i := range tasks {
		n += len(tasks[i].keys)
		st.MapWork += st.MapTaskCosts[i]
		next.perInput = max(next.perInput, float64(len(tasks[i].keys))/float64(splits[i][1]-splits[i][0]))
		next.mostTask = max(next.mostTask, len(tasks[i].keys))
	}
	st.MapRecordsIn = int64(len(input))
	st.MapRecordsOut = int64(n)
	st.ShuffleRecords = st.MapRecordsOut

	// ---- Shuffle: sort by key, gather values into one slab ---------------
	// A group is a run of equal keys in the sorted entries; its values are
	// the matching run of the slab. The sort is stable and entries start in
	// emission order, so values keep it within a key.
	var shuffle slab.Loans
	ents, tmp := slab.Take[radix.Entry](&shuffle, n)[:0], slab.Take[radix.Entry](&shuffle, n)
	// A record's sort handle is its key's image under an order-preserving
	// map into uint64 and where its value lies: map task in the high 32
	// bits, index in that task's buffer in the low 32, so that Val order is
	// emission order. Signed keys sort as unsigned once their sign bit is
	// flipped.
	var zero K
	var flip uint64
	if zero-1 < zero {
		flip = 1 << 63
	}
	for ti := range tasks {
		for i, k := range tasks[ti].keys {
			ents = append(ents, radix.Entry{Key: uint64(k) ^ flip, Val: uint64(ti)<<32 | uint64(i)})
		}
	}
	ents, idle := radix.Sort(ents, tmp)
	vals := slab.Take[V](&shuffle, n)
	// Group g is ents[lo:hi] with lo, hi = bounds[g].Key, bounds[g].Val:
	// the group index lives in the sort's idle buffer, which holds n
	// entries and so room for every group.
	bounds := idle[:0]
	for i, e := range ents {
		vals[i] = tasks[e.Val>>32].vals[uint32(e.Val)]
		if i == 0 || e.Key != ents[i-1].Key {
			if g := len(bounds); g > 0 {
				bounds[g-1].Val = uint64(i)
			}
			bounds = append(bounds, radix.Entry{Key: uint64(i)})
		}
	}
	if g := len(bounds); g > 0 {
		bounds[g-1].Val = uint64(n)
	}
	// The map output is dead; its slabs can serve the reduce phase.
	for i := range tasks {
		tasks[i].bufs.Return()
	}
	groups := len(bounds)
	st.ReduceKeys = int64(groups)
	// The map-side wall covers mapping plus the shuffle — the
	// record-stream handling; what remains of the job is reduce compute.
	st.MapWall = time.Since(start)

	// ---- Reduce phase ----------------------------------------------------
	// Workers claim batches of consecutive keys. A batch's outputs are a
	// span of its worker's buffer; spans are stitched in batch order.
	type span struct{ worker, lo, hi int }
	spans := make([]span, (groups+reduceBatch-1)/reduceBatch)
	outs := make([]ReduceCtx[O], cfg.Parallelism)
	share := float64(max(n, 1)) / float64(len(outs)) // a worker's even share of the values
	for w := range outs {
		outs[w].worker = w
		slab.Lend(&outs[w].bufs, &outs[w].out, fit(share, last.perValue, last.mostWorker))
	}
	costs := make([]float64, groups)
	each(cfg.Parallelism, len(spans), func(w, b int) {
		ctx := &outs[w]
		lo := len(ctx.out)
		for g := b * reduceBatch; g < min(groups, (b+1)*reduceBatch); g++ {
			s, e := bounds[g].Key, bounds[g].Val
			ctx.cost = 0
			before := len(ctx.out)
			reduceFn(K(ents[s].Key^flip), vals[s:e:e], ctx)
			costs[g] = float64(e-s) + float64(len(ctx.out)-before) + ctx.cost
		}
		spans[b] = span{w, lo, len(ctx.out)}
	})

	for i := range outs {
		st.OutRecords += int64(len(outs[i].out))
		next.perValue = max(next.perValue, float64(len(outs[i].out))/share)
		next.mostWorker = max(next.mostWorker, len(outs[i].out))
	}
	lastRun.Store(cfg.Name, next)
	result := slices.Grow([]O(nil), int(st.OutRecords))
	for _, sp := range spans {
		result = append(result, outs[sp.worker].out[sp.lo:sp.hi]...)
	}
	for i := range outs {
		outs[i].bufs.Return()
	}
	shuffle.Return()
	// Costs stay in key order, which no Parallelism changes, and the total
	// is summed in that order: per-key costs need not be integers, and a
	// float sum is only reproducible in a fixed order.
	st.ReduceTaskCosts = costs
	for _, c := range costs {
		st.ReduceWork += c
	}
	return result, st
}

// each calls fn(w, i) for every i in [0, n), in claim order, on at most
// workers goroutines; w identifies the calling goroutine.
func each(workers, n int, fn func(w, i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// splitRanges partitions [0, n) into at most k contiguous ranges of
// near-equal size, the longer ones first.
func splitRanges(n, k int) [][2]int {
	k = min(max(k, 1), n)
	var out [][2]int
	for i := 0; i < k; i++ {
		out = append(out, [2]int{i*(n/k) + min(i, n%k), (i+1)*(n/k) + min(i+1, n%k)})
	}
	return out
}
