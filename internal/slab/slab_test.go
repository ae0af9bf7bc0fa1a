package slab

import (
	"reflect"
	"testing"

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

// TestMapPool: a map goes back empty, and GetMap hands out nil when the
// pool has none.
func TestMapPool(t *testing.T) {
	type key struct{ a, b int } // a map type no other test pools
	for m := GetMap[key, string](); m != nil; m = GetMap[key, string]() {
	}
	if m := GetMap[key, string](); m != nil {
		t.Fatalf("GetMap on an empty pool = %v, want nil", m)
	}
	m := map[key]string{{1, 2}: "x", {3, 4}: "y"}
	PutMap(m)
	if len(m) != 0 {
		t.Fatalf("PutMap left %d entries", len(m))
	}
	if got := GetMap[key, string](); got != nil && len(got) != 0 {
		t.Fatalf("GetMap returned a map with %d entries", len(got))
	}
}

// TestClasses: a request's class has room for it, wastes at most a
// quarter of it, and is the class its slab goes back to; the classes
// are in capacity order.
func TestClasses(t *testing.T) {
	prev := 0
	for n := 1; n < 1<<40; n += 1 + n/7 {
		c, capacity := classUp(n)
		if capacity < n || (n > 4 && capacity*4 > n*5) {
			t.Fatalf("classUp(%d) = class %d of capacity %d", n, c, capacity)
		}
		if got := classDown(capacity); got != c {
			t.Fatalf("a slab of capacity %d (class %d) goes back to class %d", capacity, c, got)
		}
		if c < prev || c >= classes {
			t.Fatalf("classUp(%d) = %d after %d, of %d classes", n, c, prev, classes)
		}
		prev = c
		if d := classDown(n); d > c || d < c-1 {
			t.Fatalf("classDown(%d) = %d, classUp = %d", n, d, c)
		}
	}
	if classDown(3) != -1 {
		t.Fatalf("classDown(3) = %d, want -1", classDown(3))
	}
}
