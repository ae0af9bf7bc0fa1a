// Package radix is the one LSD byte radix sort under the shuffle of
// internal/mapreduce and the token-id assignment of internal/token.
package radix

// Entry is one sort handle: a uint64 key and a payload that rides along.
type Entry struct{ Key, Val uint64 }

// Sort sorts ents by Key with a stable LSD byte radix, skipping the bytes
// every key agrees on (dense ids vary in two or three of eight). tmp must
// be as long as ents. It returns the sorted slice and the idle one: ents
// and tmp, in one order or the other.
func Sort(ents, tmp []Entry) (sorted, idle []Entry) {
	if len(ents) < 2 {
		return ents, tmp
	}
	var hist [8][256]int
	for _, e := range ents {
		for b := range hist {
			hist[b][byte(e.Key>>(8*b))]++
		}
	}
	for b := range hist {
		next := &hist[b]
		if next[byte(ents[0].Key>>(8*b))] == len(ents) {
			continue
		}
		sum := 0
		for d, c := range next {
			next[d], sum = sum, sum+c
		}
		for _, e := range ents {
			d := byte(e.Key >> (8 * b))
			tmp[next[d]] = e
			next[d]++
		}
		ents, tmp = tmp, ents
	}
	return ents, tmp
}
