// Package radix is the one byte radix sort under the shuffle of
// internal/mapreduce and the token-id assignment of internal/token.
//
// It reads only the key bytes that order the keys. One OR pass finds the
// bytes in which some key differs from the first: dense ids vary in two
// or three of eight, and those few bytes are the whole sort. Keys that
// vary in more bytes than n entries need, as 64-bit fingerprints or
// 8-byte token prefixes do, are sorted on their top ⌈log₂₅₆ n⌉ varying
// bytes, and each run of keys equal on those bytes is finished by the
// rest of the key: by insertion for a short run, by the same sort for a
// long one.
package radix

import "math/bits"

// Entry is one sort handle: a uint64 key and a payload that rides along.
type Entry struct{ Key, Val uint64 }

// insertionMax is the longest run of equal top bytes that is finished by
// insertion; a longer one is radix-sorted on its own varying bytes.
const insertionMax = 32

// Sort sorts ents by Key, stably. tmp must be as long as ents. It returns
// the sorted slice and the idle one: ents and tmp, in one order or the
// other.
func Sort(ents, tmp []Entry) (sorted, idle []Entry) {
	if len(ents) < 2 {
		return ents, tmp
	}
	var vary uint64
	k0 := ents[0].Key
	for _, e := range ents[1:] {
		vary |= e.Key ^ k0
	}
	if vary == 0 {
		return ents, tmp
	}
	// Varying bytes, most significant first.
	var varying [8]uint
	nv := 0
	for b := 7; b >= 0; b-- {
		if byte(vary>>(8*b)) != 0 {
			varying[nv] = uint(8 * b)
			nv++
		}
	}
	// d top varying bytes give n entries room to spread: 256^d >= n.
	var hist [4][256]int
	d := (bits.Len(uint(len(ents)-1)) + 7) / 8
	top := varying[:min(nv, d, len(hist))]
	for _, e := range ents {
		for i, sh := range top {
			hist[i][byte(e.Key>>sh)]++
		}
	}
	for i := len(top) - 1; i >= 0; i-- {
		sh, next := top[i], &hist[i]
		sum := 0
		for v, c := range next {
			next[v], sum = sum, sum+c
		}
		for _, e := range ents {
			v := byte(e.Key >> sh)
			tmp[next[v]] = e
			next[v]++
		}
		ents, tmp = tmp, ents
	}
	if nv == len(top) {
		return ents, tmp
	}
	// Keys now ascend by their bits from the lowest sorted byte up; finish
	// each run that ties there by the bits below.
	low := top[len(top)-1]
	for lo, hi := 0, 0; lo < len(ents); lo = hi {
		head := ents[lo].Key >> low
		for hi = lo + 1; hi < len(ents) && ents[hi].Key>>low == head; hi++ {
		}
		if run := ents[lo:hi]; len(run) <= insertionMax {
			insertion(run)
		} else if sorted, _ := Sort(run, tmp[lo:hi]); &sorted[0] != &run[0] {
			copy(run, sorted)
		}
	}
	return ents, tmp
}

// insertion sorts a short run by Key, stably.
func insertion(run []Entry) {
	for i := 1; i < len(run); i++ {
		e := run[i]
		j := i
		for ; j > 0 && run[j-1].Key > e.Key; j-- {
			run[j] = run[j-1]
		}
		run[j] = e
	}
}
