package mapreduce

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWordCount(t *testing.T) {
	docs := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	// Keys are integers: words are interned to ids before the job, the way
	// the TSJ jobs key on token and string ids.
	var words []string
	ids := make(map[string]int)
	docIDs := make([][]int, len(docs))
	for d, doc := range docs {
		for _, w := range strings.Fields(doc) {
			if _, ok := ids[w]; !ok {
				ids[w] = len(words)
				words = append(words, w)
			}
			docIDs[d] = append(docIDs[d], ids[w])
		}
	}
	type count struct {
		word string
		n    int
	}
	out, st := Run(Config{Name: "wordcount"}, docIDs,
		func(doc []int, ctx *MapCtx[int, int]) {
			for _, w := range doc {
				ctx.Emit(w, 1)
			}
		},
		func(word int, ones []int, ctx *ReduceCtx[count]) {
			ctx.Emit(count{words[word], len(ones)})
		},
	)
	got := make(map[string]int)
	for _, c := range out {
		got[c.word] = c.n
	}
	want := map[string]int{"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
	if st.MapRecordsIn != 3 {
		t.Errorf("MapRecordsIn = %d, want 3", st.MapRecordsIn)
	}
	if st.MapRecordsOut != 10 {
		t.Errorf("MapRecordsOut = %d, want 10", st.MapRecordsOut)
	}
	if st.ReduceKeys != 6 {
		t.Errorf("ReduceKeys = %d, want 6", st.ReduceKeys)
	}
	if st.OutRecords != 6 {
		t.Errorf("OutRecords = %d, want 6", st.OutRecords)
	}
}

func TestEmptyInput(t *testing.T) {
	out, st := Run(Config{}, nil,
		func(x int, ctx *MapCtx[int, int]) { ctx.Emit(x, x) },
		func(k int, vs []int, ctx *ReduceCtx[int]) { ctx.Emit(k) },
	)
	if len(out) != 0 || st.MapRecordsIn != 0 || st.ReduceKeys != 0 {
		t.Fatalf("empty input produced %v, %+v", out, st)
	}
}

// modSumJob sums 0..999 by residue mod 13 over 7 map tasks: outputs in
// key order, whatever the parallelism.
func modSumJob(par int) ([]int, *Stats) {
	input := make([]int, 1000)
	for i := range input {
		input[i] = i
	}
	return Run(Config{Parallelism: par, MapTasks: 7}, input,
		func(x int, ctx *MapCtx[int, int]) { ctx.Emit(x%13, x) },
		func(k int, vs []int, ctx *ReduceCtx[int]) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			ctx.Emit(sum)
		},
	)
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	a, _ := modSumJob(1)
	b, _ := modSumJob(8)
	if len(a) != len(b) {
		t.Fatalf("different sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCostAccounting(t *testing.T) {
	input := []int{1, 2, 3, 4}
	_, st := Run(Config{MapTasks: 2}, input,
		func(x int, ctx *MapCtx[int, int]) {
			ctx.Emit(7, x)
			ctx.AddCost(10)
		},
		func(k int, vs []int, ctx *ReduceCtx[int]) {
			ctx.AddCost(100)
			ctx.Emit(len(vs))
		},
	)
	// Map: per record 1 (input) + 1 (emit) + 10 (AddCost) = 12; 4 records.
	if st.MapWork != 48 {
		t.Errorf("MapWork = %v, want 48", st.MapWork)
	}
	// Reduce: single key: 4 values + 1 output + 100 = 105.
	if st.ReduceWork != 105 {
		t.Errorf("ReduceWork = %v, want 105", st.ReduceWork)
	}
	if len(st.MapTaskCosts) != 2 {
		t.Errorf("MapTaskCosts = %v, want 2 splits", st.MapTaskCosts)
	}
	if st.MaxReduceTask() != 105 {
		t.Errorf("MaxReduceTask = %v, want 105", st.MaxReduceTask())
	}
}

func TestSplitRanges(t *testing.T) {
	cases := []struct {
		n, k int
		want [][2]int
	}{
		{0, 4, nil},
		{3, 1, [][2]int{{0, 3}}},
		{5, 2, [][2]int{{0, 3}, {3, 5}}},
		{4, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
	}
	for _, c := range cases {
		got := splitRanges(c.n, c.k)
		if len(got) != len(c.want) {
			t.Errorf("splitRanges(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitRanges(%d,%d)[%d] = %v, want %v", c.n, c.k, i, got[i], c.want[i])
			}
		}
	}
}

// TestReduceWorkerOwnsItsState: ReduceCtx.Worker names one of the job's
// Config.Workers goroutines, and no two reduce calls of one worker
// overlap, so a reducer may keep unsynchronized per-worker state.
func TestReduceWorkerOwnsItsState(t *testing.T) {
	cfg := Config{Parallelism: 4, MapTasks: 3}
	input := make([]int, 5000)
	for i := range input {
		input[i] = i
	}
	busy := make([]atomic.Bool, cfg.Workers())
	calls := make([]int, cfg.Workers()) // per-worker state, written unlocked
	out, _ := Run(cfg, input,
		func(x int, ctx *MapCtx[int, int]) { ctx.Emit(x, x) },
		func(k int, vs []int, ctx *ReduceCtx[int]) {
			w := ctx.Worker()
			if w < 0 || w >= len(busy) || !busy[w].CompareAndSwap(false, true) {
				ctx.Emit(-1)
				return
			}
			calls[w]++
			busy[w].Store(false)
			ctx.Emit(k)
		},
	)
	total := 0
	for _, n := range calls {
		total += n
	}
	if len(out) != len(input) || total != len(input) {
		t.Fatalf("%d outputs, %d calls counted; want %d of each", len(out), total, len(input))
	}
	for i, k := range out {
		if k != i {
			t.Fatalf("output %d = %d: a worker id out of range or two overlapping calls of one worker", i, k)
		}
	}
	if got := (Config{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}
