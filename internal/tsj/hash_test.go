package tsj

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/token"
)

// TestHashIDMatchesFNV: the inline hashID is hash/fnv's 64-bit FNV-1a
// over the id's 4 little-endian bytes, so every groupKey choice — and
// with it every grouping of the dedup job — is the one the library hash
// gives. The sweep covers every id below 2^17 and the ids around each
// power of two and the int32 ends.
func TestHashIDMatchesFNV(t *testing.T) {
	ref := func(id token.StringID) uint64 {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h := fnv.New64a()
		h.Write(b[:])
		return h.Sum64()
	}
	ids := []token.StringID{math.MaxInt32, math.MaxInt32 - 1, math.MinInt32, -1}
	for id := token.StringID(0); id < 1<<17; id++ {
		ids = append(ids, id)
	}
	for s := 17; s < 31; s++ {
		ids = append(ids, 1<<s-1, 1<<s, 1<<s+1)
	}
	for _, id := range ids {
		if got, want := hashID(id), ref(id); got != want {
			t.Fatalf("hashID(%d) = %#x, want %#x", id, got, want)
		}
	}
}
