package tsjoin

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/namegen"
)

// TestSelfJoinConcurrentRecycled: joins running side by side each build,
// use and release their own corpus and prefix index on slabs the others
// keep giving back to the shared pools, and every one still answers as
// the same join run alone. The inputs differ in size and content, so a
// slab passes between joins of other shapes; run it under -race.
func TestSelfJoinConcurrentRecycled(t *testing.T) {
	type job struct {
		names []string
		opts  Options
		entry int // 0 SelfJoin, 1 SelfJoinStats, 2 JoinStats of the two halves
	}
	var jobs []job
	for i, n := range []int{400, 1200, 60, 800} {
		names := namegen.Generate(namegen.Config{Seed: int64(40 + i), NumNames: n})
		jobs = append(jobs, job{names, Options{Threshold: []float64{0.1, 0.2, 0.3, 0.15}[i]}, i % 3})
	}
	run := func(j job) ([]Pair, error) {
		switch j.entry {
		case 0:
			return SelfJoin(j.names, j.opts)
		case 1:
			pairs, _, err := SelfJoinStats(j.names, j.opts)
			return pairs, err
		default:
			half := len(j.names) / 2
			pairs, _, err := JoinStats(j.names[:half], j.names[half:], j.opts)
			return pairs, err
		}
	}
	want := make([][]Pair, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = run(j); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("job %d found no pairs; it would check nothing", i)
		}
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, err := run(j)
				if err != nil || !slices.Equal(got, want[i]) {
					t.Errorf("job %d, repeat %d: %d pairs (error %v), want the %d of the serial run", i, rep, len(got), err, len(want[i]))
					return
				}
			}
		}(i, j)
	}
	wg.Wait()
}
