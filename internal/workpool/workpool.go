// Package workpool is the repo's one set of persistent goroutines for
// per-operation fan-out. It exists so a fan-out on the hot path — a
// sharded matcher's probe of its index shards, a coordinator's scatter
// over its workers — does not pay goroutine startup and stack growth on
// every operation: its workers are long-lived, and their stacks stay
// grown between jobs.
package workpool

import "sync"

// Pool runs submitted jobs on persistent goroutines. A Pool must not be
// used after Close.
type Pool struct {
	jobs chan func() // nil for a pool of one
	grow bool
	wg   sync.WaitGroup
}

// New starts a pool of n persistent workers, for CPU-bound jobs: a job
// that finds every worker busy waits for one. A pool of one starts no
// goroutine and runs every job on its submitter: one worker never ran two
// jobs at once, and a pool that is never closed then leaks nothing.
func New(n int) *Pool {
	p := &Pool{}
	if n == 1 {
		return p
	}
	p.jobs = make(chan func())
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.work(nil)
	}
	return p
}

// NewGrowing returns a pool for jobs that wait on the network: it starts
// no worker up front, and a job that finds every worker busy starts one
// more persistent worker instead of waiting behind another job's stall.
// The pool never holds more workers than the most jobs it ever had in
// flight at once.
func NewGrowing() *Pool {
	return &Pool{jobs: make(chan func()), grow: true}
}

// work runs first, when set, then every job handed to the pool until
// Close.
func (p *Pool) work(first func()) {
	defer p.wg.Done()
	if first != nil {
		first()
	}
	for f := range p.jobs {
		f()
	}
}

func (p *Pool) submit(f func()) {
	switch {
	case p.jobs == nil:
		f()
	case p.grow:
		select {
		case p.jobs <- f:
		default:
			p.wg.Add(1)
			go p.work(f)
		}
	default:
		p.jobs <- f
	}
}

// Each runs f(0) … f(n-1) and returns once all have run. f(0) runs on
// the calling goroutine and only the others are handed to the pool, so a
// fan-out of two makes one hand-off and a single job makes none. If f(0)
// panics, Each still waits for the others before the panic goes on, so
// none of them outlives what its caller releases while unwinding.
func (p *Pool) Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		p.submit(func() {
			defer wg.Done()
			f(i)
		})
	}
	defer wg.Wait()
	f(0)
}

// Close stops the workers once they finish their jobs and waits for
// them to exit.
func (p *Pool) Close() {
	if p.jobs != nil {
		close(p.jobs)
	}
	p.wg.Wait()
}
