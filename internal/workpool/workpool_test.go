package workpool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachConcurrent: several goroutines fan out through one pool at
// once; every job runs exactly once per Each, and Close returns.
func TestEachConcurrent(t *testing.T) {
	for _, p := range []*Pool{New(1), New(3), NewGrowing()} {
		const callers, jobs = 4, 5
		var runs [callers][jobs]atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					p.Each(jobs, func(i int) { runs[c][i].Add(1) })
				}
			}()
		}
		wg.Wait()
		p.Close()
		for c := range runs {
			for i := range runs[c] {
				if n := runs[c][i].Load(); n != 20 {
					t.Fatalf("caller %d job %d ran %d times, want 20", c, i, n)
				}
			}
		}
	}
}

// TestGrowingPoolDoesNotQueue: a job that stalls holds its worker, and
// another fan-out still runs at once instead of waiting behind it.
func TestGrowingPoolDoesNotQueue(t *testing.T) {
	p := NewGrowing()
	defer p.Close()
	release := make(chan struct{})
	stalled := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Each(2, func(i int) {
			if i == 1 {
				close(stalled)
				<-release
			}
		})
	}()
	<-stalled
	finished := make(chan struct{})
	go func() {
		p.Each(3, func(int) {})
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("a fan-out waited behind a stalled job")
	}
	close(release)
	<-done
}

// TestEachWaitsWhenFirstJobPanics: the caller's own job panicking does
// not let Each return before the pool's jobs have finished.
func TestEachWaitsWhenFirstJobPanics(t *testing.T) {
	p := New(2)
	defer p.Close()
	var other atomic.Bool
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic of f(0) was lost")
			}
			if !other.Load() {
				t.Fatal("Each unwound before job 1 finished")
			}
		}()
		p.Each(2, func(i int) {
			if i == 0 {
				panic("job 0")
			}
			time.Sleep(10 * time.Millisecond)
			other.Store(true)
		})
	}()
}
