package radix

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkSort sorts keys with Sort and with slices.SortStableFunc, each
// entry carrying its input index as Val, and fails unless both orders
// agree in Key and Val.
func checkSort(t *testing.T, label string, keys []uint64) {
	t.Helper()
	ents := make([]Entry, len(keys))
	for i, k := range keys {
		ents[i] = Entry{Key: k, Val: uint64(i)}
	}
	want := slices.Clone(ents)
	slices.SortStableFunc(want, func(x, y Entry) int { return cmp.Compare(x.Key, y.Key) })
	got, idle := Sort(ents, make([]Entry, len(ents)))
	if len(got) != len(keys) || len(idle) != len(keys) {
		t.Fatalf("%s: Sort returned %d and %d entries for %d", label, len(got), len(idle), len(keys))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s n=%d: entry %d is %#x/%d, want %#x/%d", label, len(keys), i, got[i].Key, got[i].Val, want[i].Key, want[i].Val)
		}
	}
}

// keySets returns n keys of each shape the shuffle and the token-id
// assignment sort, drawn from rng; most shapes repeat keys, so stability
// is checked too.
func keySets(rng *rand.Rand, n int) map[string][]uint64 {
	sets := make(map[string][]uint64)
	add := func(name string, f func(i int) uint64) {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = f(i)
		}
		sets[name] = keys
	}
	add("dense ids", func(int) uint64 { return uint64(rng.Intn(n/2 + 1)) })
	add("fingerprints", func(int) uint64 { return rng.Uint64() })
	add("fingerprints with repeats", func(int) uint64 { return uint64(rng.Intn(n/4+1)) * 0x9e3779b97f4a7c15 })
	add("shared top 6 bytes", func(int) uint64 { return 0xdeadbeefcafe<<16 | uint64(rng.Intn(1<<16)) })
	add("shared top 6 bytes, few values", func(int) uint64 { return 0xdeadbeefcafe<<16 | uint64(rng.Intn(40))<<3 })
	add("token prefixes", func(int) uint64 {
		var b [8]byte
		l := 1 + rng.Intn(10)
		for j := 0; j < min(l, 8); j++ {
			b[j] = "aeimnorst"[rng.Intn(min(3+j, 9))] // few letters up front: long shared-prefix runs
		}
		return binary.BigEndian.Uint64(b[:])
	})
	add("all equal", func(int) uint64 { return 0x0123456789abcdef })
	add("sign-flipped", func(int) uint64 { return uint64(int64(rng.Intn(2*n+1)-n)) ^ 1<<63 })
	add("one varying high byte", func(int) uint64 { return uint64(rng.Intn(3)) << 56 })
	add("descending", func(i int) uint64 { return uint64(n - i) })
	return sets
}

// TestSortMatchesStableSort: Sort is a stable sort by full key — the
// order of slices.SortStableFunc, in Key and Val — on every key shape it
// serves and at sizes on both sides of each pass-count and run-length
// boundary.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 25, 33, 255, 256, 257, 1000, 4097, 65536, 65537, 70000} {
		sets := keySets(rng, n)
		names := make([]string, 0, len(sets))
		for name := range sets {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			checkSort(t, fmt.Sprintf("%s n=%d", name, n), sets[name])
		}
	}
}

// FuzzRadixSort: for any keys, Sort orders them as a stable sort by full
// key. Each pair of input bytes makes one key, placed by shape into the
// low bytes, the top bytes, a fingerprint, or an 8-byte token prefix, and
// the list is repeated copies times, so runs of equal top bytes grow past
// the insertion bound.
func FuzzRadixSort(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 1, 2, 0, 0}, uint8(0), uint8(3))
	f.Add([]byte("abcdabceabcfzzzzabcd"), uint8(3), uint8(40))
	f.Add([]byte{0xff, 0xff, 0, 1, 0x80, 0}, uint8(1), uint8(9))
	f.Add([]byte("fingerprints in every byte"), uint8(2), uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, shape, copies uint8) {
		base := make([]uint64, len(data)/2)
		for i := range base {
			v := uint64(binary.LittleEndian.Uint16(data[2*i:]))
			switch shape % 4 {
			case 0: // dense ids
			case 1: // shared low bytes, varying top
				v <<= 48
			case 2: // fingerprints
				v *= 0x9e3779b97f4a7c15
			case 3: // token prefixes: two letters, then a tail
				v = uint64('a'+v%3)<<56 | uint64('a'+v/3%3)<<48 | (v/9)<<24
			}
			base[i] = v
		}
		var keys []uint64
		for range int(copies%64) + 1 {
			keys = append(keys, base...)
		}
		checkSort(t, fmt.Sprintf("shape %d copies %d", shape%4, copies%64+1), keys)
	})
}
