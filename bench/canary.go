package main

import (
	"sync"
	"time"
)

var canarySink uint64

const (
	// canaryIters sizes the kernel to take 1.00 ms on a quiet machine of
	// the class the benchmark was written on (Xeon 2.1 GHz, 2 vCPUs), so
	// that times divided by the canary's read as milliseconds there.
	canaryIters = 930_000
	// canaryTries: the best of this many back-to-back kernels is one
	// canary reading. A server finishing a GC cycle or a late timer slows
	// one kernel; a neighbour on the sibling threads slows them all.
	canaryTries = 8
)

// canary times a fixed arithmetic kernel on engineProcs threads at once
// (about 3 ms on a quiet machine) and returns the time in ms. The kernel
// keeps several independent multiply and shift chains in flight, so it
// slows down when the host runs something else on a sibling hardware
// thread or deschedules a vCPU — which is what makes the same engine op
// take 70 ms one second and 105 ms the next on a shared 2-vCPU guest — and
// it touches no memory, so it says nothing about the engine.
func canary() float64 {
	best := canaryOnce()
	for i := 1; i < canaryTries; i++ {
		if c := canaryOnce(); c < best {
			best = c
		}
	}
	return best
}

func canaryOnce() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < engineProcs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a, b, c, d uint64 = 1, 2, 3, 4
			for i := 0; i < canaryIters; i++ {
				a = a*6364136223846793005 + 1
				b = b*2862933555777941757 + 3
				c ^= c << 7
				d += uint64(i)
			}
			mu.Lock()
			canarySink += a + b + c + d
			mu.Unlock()
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}
