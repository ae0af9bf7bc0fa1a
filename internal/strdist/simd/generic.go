package simd

// u16Inf is the out-of-band sentinel of the banded kernel — the same
// value strdist.LevenshteinBoundedScratchU16 uses, chosen so a cell can
// grow past it by the token length without wrapping uint16.
const u16Inf = 1 << 15

// levBatch is the full kernel behind LevBatch, including the
// all-lanes row-minima abort and the caps[l]+1 clamp. Both sides are
// lane-major: a[i*Width+l] is rune i of lane l's probe token,
// b[j*Width+l] rune j of its candidate.
func levBatch(a []uint16, la int, b []uint16, lb int, caps *[Width]uint16, row []uint16, out *[Width]uint16) {
	// row[j*Width+l] = D[i-1][j] for lane l.
	for j := 0; j <= lb; j++ {
		v := satU16(j)
		for l := 0; l < Width; l++ {
			row[j*Width+l] = v
		}
	}
	var prev, left, rowMin [Width]uint16
	for i := 1; i <= la; i++ {
		iv := satU16(i)
		for l := 0; l < Width; l++ {
			prev[l] = row[l] // D[i-1][0]
			row[l] = iv      // D[i][0]
			left[l] = iv
			rowMin[l] = iv
		}
		for j := 1; j <= lb; j++ {
			for l := 0; l < Width; l++ {
				cur := row[j*Width+l] // D[i-1][j]
				var cost uint16 = 1
				if b[(j-1)*Width+l] == a[(i-1)*Width+l] {
					cost = 0
				}
				best := addSat(prev[l], cost)
				if d := addSat(cur, 1); d < best {
					best = d
				}
				if d := addSat(left[l], 1); d < best {
					best = d
				}
				row[j*Width+l] = best
				if best < rowMin[l] {
					rowMin[l] = best
				}
				prev[l] = cur
				left[l] = best
			}
		}
		if allLanesDead(&rowMin, caps) {
			for l := 0; l < Width; l++ {
				out[l] = addSat(caps[l], 1)
			}
			return
		}
	}
	for l := 0; l < Width; l++ {
		d := row[lb*Width+l]
		if c1 := addSat(caps[l], 1); d > c1 {
			d = c1
		}
		out[l] = d
	}
}

// levBandedBatch is the banded kernel behind LevBandedBatch: per row i only
// the band lo..hi (|i-j| <= band) is computed, with the out-of-band
// boundary discipline of strdist.LevenshteinBoundedScratchU16 — cells
// beyond column band initialize to u16Inf, the cell left of the band
// start is overwritten with the sentinel once it falls out of band,
// and the stale cell at the band's right edge is the previous row's
// sentinel by construction. See LevBandedBatch for the contract and
// its preconditions (band >= caps[l], |la-lb| <= band per lane).
func levBandedBatch(a []uint16, la int, b []uint16, lb int, band int, caps *[Width]uint16, row []uint16, out *[Width]uint16) {
	for j := 0; j <= lb; j++ {
		v := uint16(u16Inf)
		if j <= band {
			v = satU16(j)
		}
		for l := 0; l < Width; l++ {
			row[j*Width+l] = v
		}
	}
	var prev, left, rowMin [Width]uint16
	for i := 1; i <= la; i++ {
		lo := i - band
		if lo < 1 {
			lo = 1
		}
		hi := i + band
		if hi > lb {
			hi = lb
		}
		// prev holds D[i-1][lo-1] (always valid: column lo-1 was inside
		// row i-1's band, or is its column 0). The boundary cell left of
		// the band start is column 0 (a real value, i) while |i-0| is
		// still within the band, the u16Inf sentinel once it has moved
		// past — i > band, NOT lo > 1: at i == band+1 the band still
		// starts at column 1 but column 0 has just fallen out of it.
		if i > band {
			base := (lo - 1) * Width
			for l := 0; l < Width; l++ {
				prev[l] = row[base+l]
				row[base+l] = u16Inf
				left[l] = u16Inf
				rowMin[l] = u16Inf
			}
		} else {
			iv := satU16(i)
			for l := 0; l < Width; l++ {
				prev[l] = row[l] // D[i-1][0] = i-1
				row[l] = iv
				left[l] = iv
				rowMin[l] = u16Inf
			}
		}
		for j := lo; j <= hi; j++ {
			for l := 0; l < Width; l++ {
				cur := row[j*Width+l] // D[i-1][j]; u16Inf beyond row i-1's band
				var cost uint16 = 1
				if b[(j-1)*Width+l] == a[(i-1)*Width+l] {
					cost = 0
				}
				best := addSat(prev[l], cost)
				if d := addSat(cur, 1); d < best {
					best = d
				}
				if d := addSat(left[l], 1); d < best {
					best = d
				}
				row[j*Width+l] = best
				if best < rowMin[l] {
					rowMin[l] = best
				}
				prev[l] = cur
				left[l] = best
			}
		}
		if allLanesDead(&rowMin, caps) {
			for l := 0; l < Width; l++ {
				out[l] = addSat(caps[l], 1)
			}
			return
		}
	}
	for l := 0; l < Width; l++ {
		d := row[lb*Width+l]
		if c1 := addSat(caps[l], 1); d > c1 {
			d = c1
		}
		out[l] = d
	}
}

// allLanesDead reports whether every lane's row minimum exceeds its
// cap — the abort condition both kernels share.
func allLanesDead(rowMin, caps *[Width]uint16) bool {
	for l := 0; l < Width; l++ {
		if rowMin[l] <= caps[l] {
			return false
		}
	}
	return true
}

// addSat is saturating uint16 addition; under the documented
// preconditions saturation is unreachable.
func addSat(a, b uint16) uint16 {
	s := uint32(a) + uint32(b)
	if s > 0xFFFF {
		return 0xFFFF
	}
	return uint16(s)
}

// satU16 narrows a non-negative int with uint16 saturation.
func satU16(v int) uint16 {
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}
