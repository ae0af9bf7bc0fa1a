package mapreduce

import (
	"reflect"
	"sync"
)

// A slab is a job buffer that outlives its job: map task key and value
// buffers, the gathered value slab, the sort's entry buffers and the
// reduce workers' output buffers all come from here and go back when the
// job is done, so a pipeline of jobs — and the next pipeline — grows its
// buffers once instead of once per job.
//
// There is one pool per element type, created on first use; slabs of
// every job whose keys, values or outputs share a type are one supply.
// The pools are sync.Pools, so slabs no job asks for are dropped within
// two garbage collections.

// slabPool is the pool of one element type's slabs. It holds *[]T
// handles, each with length 0, so that putting a slab back stores a
// pointer the pool already had and does not allocate.
type slabPool[T any] struct {
	sync.Pool
	// pointers reports whether T holds pointers. Such slabs are cleared
	// before they go back, so a pooled slab keeps no job's data alive.
	pointers bool
}

// poolKey[T] is the pools key of element type T. It is zero-sized, so
// converting it to an interface allocates nothing.
type poolKey[T any] struct{}

var pools sync.Map // poolKey[T]{} -> *slabPool[T]

func poolOf[T any]() *slabPool[T] {
	if p, ok := pools.Load(poolKey[T]{}); ok {
		return p.(*slabPool[T])
	}
	p, _ := pools.LoadOrStore(poolKey[T]{}, &slabPool[T]{pointers: hasPointers(reflect.TypeFor[T]())})
	return p.(*slabPool[T])
}

// getSlab returns an empty slab, with whatever capacity its last job
// left it, and the handle to give back to putSlab with it.
func getSlab[T any]() ([]T, *[]T) {
	if box, ok := poolOf[T]().Get().(*[]T); ok {
		return *box, box
	}
	return nil, new([]T)
}

// putSlab returns slab s under handle box. s must hold every element the
// job wrote (slabs leave the pool empty, and a job only appends), which is
// what lets clearing s alone leave the whole backing array zeroed.
func putSlab[T any](box *[]T, s []T) {
	p := poolOf[T]()
	if p.pointers {
		clear(s)
	}
	*box = s[:0]
	p.Put(box)
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
