// Package slab recycles the large per-call tables of the batch join: a
// slab is a buffer that outlives the call that used it. The mapreduce
// engine's job buffers, the token corpus build's arenas and scratch, and
// the prefix index's tables all come from here and go back when their
// owner is done with them, so a pipeline of jobs — and the next join —
// grows its buffers once instead of once per call.
//
// The pools are sync.Pools, created per element type on first use, so
// slabs nobody asks for are dropped within two garbage collections. A
// slab whose element type holds pointers is cleared before it goes back,
// so a pooled slab keeps none of its last user's data alive.
//
// An owner takes its slabs on Loans and gives them all back at once. An
// element type has a pool per capacity class, a quarter of an octave
// wide: a table of known size (Take) or a buffer of estimated size (Lend)
// gets a slab of its own class or of one at most two octaves above, so a
// table holds at most about four times the room it needs, and a large one
// does not drag every slab of its type up to its own size. A buffer whose estimate is
// poor — one that outgrows it by more than two octaves, or that nothing
// estimates — draws on the type's one drift pool instead, whose slabs
// grow to the largest such buffer.
package slab

import (
	"math/bits"
	"reflect"
	"sync"
)

// pool holds one element type's slabs as *[]T handles, each with length
// 0, so that putting a slab back stores a pointer the pool already had
// and does not allocate.
type pool[T any] struct {
	// sized[c] holds slabs of capacity at least class c's.
	sized [classes]sync.Pool
	// drift holds the slabs that went back far larger than asked for.
	drift sync.Pool
	// pointers reports whether T holds pointers. Such slabs are cleared
	// before they go back.
	pointers bool
}

// sliceKey[T] and mapKey[K, V] are the pools keys of T slabs and of
// map[K]V maps. They are zero-sized, so converting one to an interface
// allocates nothing.
type (
	sliceKey[T any]             struct{}
	mapKey[K comparable, V any] struct{}
)

var pools sync.Map // sliceKey[T]{} -> *pool[T]; mapKey[K, V]{} -> *sync.Pool

func poolOf[T any]() *pool[T] {
	if p, ok := pools.Load(sliceKey[T]{}); ok {
		return p.(*pool[T])
	}
	p, _ := pools.LoadOrStore(sliceKey[T]{}, &pool[T]{pointers: hasPointers(reflect.TypeFor[T]())})
	return p.(*pool[T])
}

// The capacity classes are a quarter of an octave wide: class 4e+m-4,
// for e >= 0 and m in 4..7, holds the slabs of capacity m<<e up to the
// next class's. A slab made for a class has exactly its capacity.
const classes = 4 * 61

// reach is how many classes above its own a request looks in, two
// octaves, and how far above its request's class a slab may have grown
// and still go back to a class. Two octaves keep a map task that emits
// up to four records per input on the classes (the shared-token and
// similar-token jobs of a name join emit two to three).
const reach = 8

// classUp returns the smallest class whose capacity holds n elements,
// and that capacity.
func classUp(n int) (class, capacity int) {
	if n <= 4 {
		return 0, 4
	}
	e := max(0, bits.Len(uint(n-1))-3)
	m := (n-1)>>e + 1
	if m == 8 {
		e, m = e+1, 4
	}
	return 4*e + m - 4, m << e
}

// classDown returns the largest class whose capacity is at most c, or -1
// for a capacity below every class.
func classDown(c int) int {
	e := max(0, bits.Len(uint(c))-3)
	if m := c >> e; m >= 4 {
		return 4*e + m - 4
	}
	return -1
}

// get returns an empty slab with room for n elements, and its handle:
// from n's class or the few above it, else, if drift allows, from the
// drift pool, else a new one of n's class. A drift slab may be too small.
// For n = 0 no class is looked in.
func (p *pool[T]) get(n int, drift bool) ([]T, *[]T) {
	capacity := 0
	if n > 0 {
		var c int
		c, capacity = classUp(n)
		for k := c; k <= min(c+reach, classes-1); k++ {
			if box, ok := p.sized[k].Get().(*[]T); ok {
				return *box, box
			}
		}
	}
	if drift {
		if box, ok := p.drift.Get().(*[]T); ok {
			return *box, box
		}
	}
	return make([]T, 0, capacity), new([]T)
}

// put returns slab s, asked for with room for n elements, under handle
// box: to its class if it is within reach of n's, else to the drift
// pool. s must hold every element its user wrote (a slab leaves the pool
// empty, so a user that appends or reslices it from length 0 only has to
// hand back the longest length it used), which is what lets clearing s
// alone leave the whole backing array zeroed.
func (p *pool[T]) put(box *[]T, s []T, n int) {
	if p.pointers {
		clear(s)
	}
	*box = s[:0]
	c := classDown(cap(s))
	if up, _ := classUp(n); n > 0 && c >= 0 && c <= up+reach {
		p.sized[c].Put(box)
	} else if cap(s) > 0 {
		p.drift.Put(box)
	}
}

// Loans are the slabs one owner holds, to give back together.
type Loans struct{ puts []func() }

// Take returns a slab of n elements, capacity-limited, on loan to l.
// Elements of a pointer-holding type come zero; others hold whatever
// their last user wrote, and the caller writes every one it reads.
func Take[T any](l *Loans, n int) []T {
	p := poolOf[T]()
	s, box := p.get(n, false)
	s = s[:n]
	l.puts = append(l.puts, func() { p.put(box, s, n) })
	return s[:n:n]
}

// Lend sets *s to an empty slab, on loan to l, for the caller to append
// to; n estimates how many elements it will take, 0 when nothing does.
// What *s holds when l is returned goes back, whether or not appending
// outgrew the slab, so *s must then hold every element appended. A
// buffer that outgrows its estimate by more than two octaves goes back to
// the drift pool, where the next such buffer looks, and whose slabs grow
// to the largest buffer that draws on it.
func Lend[T any](l *Loans, s *[]T, n int) {
	p := poolOf[T]()
	var box *[]T
	*s, box = p.get(n, true)
	l.puts = append(l.puts, func() { p.put(box, *s, n) })
}

// Return gives every slab on loan to l back to its pool. l holds none
// afterwards, so a second Return does nothing.
func (l *Loans) Return() {
	for _, put := range l.puts {
		put()
	}
	l.puts = nil
}

func mapPoolOf[K comparable, V any]() *sync.Pool {
	if p, ok := pools.Load(mapKey[K, V]{}); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(mapKey[K, V]{}, new(sync.Pool))
	return p.(*sync.Pool)
}

// GetMap returns an empty map that keeps the room its last user grew, or
// nil when the pool has none, so the caller makes one of the size it
// needs.
func GetMap[K comparable, V any]() map[K]V {
	m, _ := mapPoolOf[K, V]().Get().(map[K]V)
	return m
}

// PutMap empties m and returns it to its pool. Nothing may use m after
// PutMap.
func PutMap[K comparable, V any](m map[K]V) {
	clear(m)
	mapPoolOf[K, V]().Put(m)
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
