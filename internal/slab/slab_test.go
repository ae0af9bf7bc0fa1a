package slab

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/radix"
)

func TestHasPointers(t *testing.T) {
	for _, c := range []struct {
		v    any
		want bool
	}{
		{uint64(0), false}, {radix.Entry{}, false}, {struct{}{}, false}, {[2]float32{}, false},
		{[0]*int{}, false}, {"", true}, {[]int(nil), true}, {(*int)(nil), true},
		{struct {
			a int
			b map[int]int
		}{}, true}, {[3]struct{ s string }{}, true},
	} {
		if got := hasPointers(reflect.TypeOf(c.v)); got != c.want {
			t.Errorf("hasPointers(%T) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestSlabReuseAcrossGoroutines: a slab that one goroutine gives back is
// the one another goroutine gets next. The giving goroutine runs while the
// asking one spins, so the two run on different processors: a pool with a
// private slot per processor, such as sync.Pool, fails this.
func TestSlabReuseAcrossGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	type elem struct{ a, b uint32 } // a type no other test uses
	for round := 0; round < 20; round++ {
		var l Loans
		s := Take[elem](&l, 1000)
		var done atomic.Bool
		go func() {
			l.Return()
			done.Store(true)
		}()
		for !done.Load() {
		}
		var m Loans
		if got := Take[elem](&m, 1000); unsafe.SliceData(got) != unsafe.SliceData(s) {
			t.Fatalf("round %d: the slab given back on another goroutine was not handed out next", round)
		}
		m.Return()
	}
}

// rooms returns the rooms of l's idle slabs.
func (l *list[X]) rooms() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var r []int
	for _, it := range l.idle {
		r = append(r, it.room)
	}
	return r
}

// collect runs a garbage collection and waits until the lists have aged.
func collect() {
	now := cycle.Load()
	runtime.GC()
	for cycle.Load() == now {
		time.Sleep(time.Millisecond)
	}
}

// TestIdleSlabsAge: a slab idle across one collection is still handed
// out; one idle across two is dropped, and its memory is freed.
func TestIdleSlabsAge(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only collect collects
	type elem struct{ a [4]uint64 }                  // a type no other test uses
	collect()                                        // let a collection already under way age the lists first
	var l Loans
	s := Take[elem](&l, 500)
	first := unsafe.SliceData(s)
	l.Return()
	collect()
	if s = Take[elem](&l, 500); unsafe.SliceData(s) != first {
		t.Fatal("a slab idle across one collection was dropped")
	}
	var freed atomic.Bool
	runtime.SetFinalizer(unsafe.SliceData(s), func(*elem) { freed.Store(true) })
	first, s = nil, nil
	l.Return()
	collect()
	collect()
	if n := len(listOf[[]elem]().rooms()); n != 0 {
		t.Fatalf("%d slabs still idle after two collections", n)
	}
	for i := 0; i < 20 && !freed.Load(); i++ {
		collect()
	}
	if !freed.Load() {
		t.Fatal("a dropped slab's memory was never freed")
	}
}

// TestPointerSlabsComeBackCleared: a pointer-holding slab, taken or
// appended to, comes back zeroed, and a map comes back empty.
func TestPointerSlabsComeBackCleared(t *testing.T) {
	type elem struct { // a type no other test uses
		p *int
		s string
	}
	var l Loans
	x := 7
	s := Take[elem](&l, 64)
	for i := range s {
		s[i] = elem{&x, "x"}
	}
	var a []elem
	Lend(&l, &a, 100)
	for range 300 { // outgrows its slab
		a = append(a, elem{&x, "y"})
	}
	m := Map[string, *int](&l, 10)
	m["x"] = &x
	l.Return()
	if s = Take[elem](&l, 64); s[0].p != nil || s[63] != (elem{}) {
		t.Fatal("a taken slab came back uncleared")
	}
	Lend(&l, &a, 250)
	if cap(a) < 300 {
		t.Fatalf("the grown slab did not come back: capacity %d", cap(a))
	}
	for i, e := range a[:cap(a)] {
		if e != (elem{}) {
			t.Fatalf("element %d of an appended slab came back uncleared", i)
		}
	}
	if m = Map[string, *int](&l, 10); len(m) != 0 {
		t.Fatalf("a map came back with %d entries", len(m))
	}
	l.Return()
}

// TestTakeFitsWithinFourTimes: whatever slabs are idle, a request for n
// elements gets a capacity between n and 4n, and the least such idle one.
func TestTakeFitsWithinFourTimes(t *testing.T) {
	type elem struct{ a uint16 } // a type no other test uses
	var l Loans
	for _, c := range []int{1, 3, 10, 40, 41, 170, 1000, 4000, 4001} {
		var s []elem
		Lend(&l, &s, c)
	}
	l.Return()
	for n := 1; n <= 5000; n += 1 + n/3 {
		var s []elem
		Lend(&l, &s, n)
		if cap(s) < n || cap(s) > 4*n {
			t.Fatalf("a request for %d elements got a slab of capacity %d", n, cap(s))
		}
		for _, r := range listOf[[]elem]().rooms() {
			if r >= n && r < cap(s) {
				t.Fatalf("a request for %d elements got capacity %d, with %d idle", n, cap(s), r)
			}
		}
		l.Return()
	}
}
