package tsj

import "repro/internal/token"

// hashID fingerprints a string id, standing in for the paper's HASH
// fingerprint function over strings (ids are unique per string, as
// Sec. III-C notes "identifiers of the tokenized strings ... are used").
// It is 64-bit FNV-1a over the id's 4 little-endian bytes, computed
// inline: hash/fnv's New64a, Write and Sum64 give the same value.
func hashID(id token.StringID) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(uint32(id) >> (8 * i)))
		h *= prime64
	}
	return h
}

// groupKey implements the grouping-on-one-string load-balancing rule of
// Sec. III-G.3 verbatim: for a pair (τ, υ), τ becomes the key if and only
// if int(HASH(τ) < HASH(υ)) == (HASH(τ)+HASH(υ)) % 2; otherwise υ does.
// The parity term flips roughly half the orderings so that hot strings do
// not always become keys.
func groupKey(a, b token.StringID) (key, val token.StringID) {
	ha, hb := hashID(a), hashID(b)
	lt := uint64(0)
	if ha < hb {
		lt = 1
	}
	if lt == (ha+hb)%2 {
		return a, b
	}
	return b, a
}

// pairKey packs an ordered pair of string ids into one comparable value.
func pairKey(a, b token.StringID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// unpackPair reverses pairKey.
func unpackPair(k uint64) (a, b token.StringID) {
	return token.StringID(k >> 32), token.StringID(uint32(k))
}

// normPair orders a pair ascending.
func normPair(a, b token.StringID) (token.StringID, token.StringID) {
	if a > b {
		return b, a
	}
	return a, b
}
