// Package slab recycles the large per-call tables of the batch join: a
// slab is a buffer that outlives the call that used it. The mapreduce
// engine's job buffers, the token corpus build's arenas, scratch and
// intern map, and the prefix index's tables all come from here and go
// back when their owner is done with them, so a pipeline of jobs — and
// the next join — grows its buffers once instead of once per call.
//
// Idle slabs wait on one mutex-guarded list per type, shared by the whole
// process: a slab that one goroutine gives back is there for the next
// request from any goroutine, so a table exists once, not once per
// processor as it would in a sync.Pool. A request for n elements gets the
// idle slab of least capacity between n and 4n, the latest one given back
// among equals, or else a new one of capacity n: a table holds at most
// four times the room it needs, and a large one does not drag every slab
// of its type up to its own size. A slab left idle across two garbage
// collections is dropped, as a sync.Pool drops it, so memory that nobody
// asks for goes back to the runtime.
//
// A slab whose element type holds pointers is cleared before it goes
// back, so an idle slab keeps none of its last user's data alive. Maps
// are recycled the same way, emptied; a map's room is the entries it was
// made for or grew to hold.
package slab

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// list holds the idle slabs (or maps) of one type X.
type list[X any] struct {
	mu   sync.Mutex
	idle []idle[X]
	// pointers reports, for a slab type, whether its elements hold
	// pointers. Such slabs are cleared before they go back.
	pointers bool
}

// idle is a slab on a list: x has room for room elements, and went back
// during garbage collection cycle cycle.
type idle[X any] struct {
	x     X
	room  int
	cycle uint64
}

// key[X] is the key of X's list in lists. It is zero-sized, so converting
// one to an interface allocates nothing.
type key[X any] struct{}

var (
	lists sync.Map      // key[X]{} -> *list[X]
	cycle atomic.Uint64 // the garbage collections seen so far
)

func listOf[X any]() *list[X] {
	if l, ok := lists.Load(key[X]{}); ok {
		return l.(*list[X])
	}
	t := reflect.TypeFor[X]()
	l, _ := lists.LoadOrStore(key[X]{}, &list[X]{pointers: t.Kind() == reflect.Slice && hasPointers(t.Elem())})
	return l.(*list[X])
}

// take removes and returns the idle slab of least room in [n, 4n], the
// latest one given back among equals, and its room.
func (l *list[X]) take(n int) (x X, room int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i := len(l.idle) - 1; i >= 0; i-- {
		if r := l.idle[i].room; r >= n && r <= 4*n && (best < 0 || r < l.idle[best].room) {
			best = i
		}
	}
	if best < 0 {
		return x, 0, false
	}
	x, room = l.idle[best].x, l.idle[best].room
	l.idle = slices.Delete(l.idle, best, best+1)
	return x, room, true
}

// put gives back x, which has room for room elements. A slab without
// room is not kept.
func (l *list[X]) put(x X, room int) {
	if room == 0 {
		return
	}
	l.mu.Lock()
	l.idle = append(l.idle, idle[X]{x, room, cycle.Load()})
	l.mu.Unlock()
}

// age drops the slabs that have been idle across two collections, now
// being the number of collections seen.
func (l *list[X]) age(now uint64) {
	l.mu.Lock()
	l.idle = slices.DeleteFunc(l.idle, func(it idle[X]) bool { return it.cycle+2 <= now })
	l.mu.Unlock()
}

func init() { arm() }

// arm sets up a sentinel whose finalizer runs after the next collection:
// it ages every list, counts the cycle and arms the next sentinel. A
// 16-byte sentinel is past the tiny allocator, so it is an object of its
// own and dies in the first collection after arm.
func arm() {
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) {
		now := cycle.Load() + 1
		lists.Range(func(_, l any) bool {
			l.(interface{ age(uint64) }).age(now)
			return true
		})
		cycle.Store(now)
		arm()
	})
}

// Loans are the slabs one owner holds, to give back together.
type Loans struct{ puts []func() }

// Take returns a slab of n elements, capacity-limited, on loan to l.
// Elements of a pointer-holding type come zero; others hold whatever
// their last user wrote, and the caller writes every one it reads.
func Take[T any](l *Loans, n int) []T {
	p := listOf[[]T]()
	s := get(p, n)[:n]
	l.puts = append(l.puts, func() { put(p, s) })
	return s[:n:n]
}

// Lend sets *s to an empty slab, on loan to l, for the caller to append
// to; n estimates how many elements it will take. What *s holds when l is
// returned goes back, whether or not appending outgrew the slab, so *s
// must then hold every element appended.
func Lend[T any](l *Loans, s *[]T, n int) {
	p := listOf[[]T]()
	*s = get(p, n)
	l.puts = append(l.puts, func() { put(p, *s) })
}

// Map returns an empty map with room for about n entries, on loan to l.
func Map[K comparable, V any](l *Loans, n int) map[K]V {
	p := listOf[map[K]V]()
	m, room, ok := p.take(n)
	if !ok {
		m, room = make(map[K]V, n), n
	}
	l.puts = append(l.puts, func() {
		room = max(room, len(m))
		clear(m)
		p.put(m, room)
	})
	return m
}

// Return gives every slab on loan to l back to its list. l holds none
// afterwards, so a second Return does nothing.
func (l *Loans) Return() {
	for _, put := range l.puts {
		put()
	}
	l.puts = nil
}

// get returns an empty slab with room for n elements.
func get[T any](p *list[[]T], n int) []T {
	if s, _, ok := p.take(n); ok {
		return s
	}
	return make([]T, 0, n)
}

// put gives slab s back to p. s must hold every element its user wrote (a
// slab leaves its list empty, so a user that appends or reslices it from
// length 0 only has to give back the longest length it used), which is
// what lets clearing s alone leave the whole backing array zeroed.
func put[T any](p *list[[]T], s []T) {
	if p.pointers {
		clear(s)
	}
	p.put(s[:0], cap(s))
}

// hasPointers reports whether values of type t hold pointers the garbage
// collector follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default: // pointers, slices, strings, maps, channels, funcs, interfaces
		return true
	}
}
