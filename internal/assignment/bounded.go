// Budget-aware flat solvers: the same Hungarian and greedy matchings as
// hungarian.go, but over caller-flattened row-major matrices, with every
// working array owned by a reusable Scratch and a cost budget that aborts
// the solve as soon as the answer is provably "too expensive".
//
// The budget soundness argument: after the Hungarian algorithm augments
// row i, the current partial matching is a minimum-cost matching of rows
// 1..i onto any i columns. The optimal full assignment restricted to those
// rows is one such matching, so with non-negative costs the partial cost
// is a monotonically non-decreasing lower bound on the full optimum —
// once it exceeds the budget, the total must too. The greedy matching
// only ever adds non-negative edges, so its running total is likewise a
// lower bound on its own final total.
package assignment

import "slices"

const inf = int(^uint(0) >> 2)

// Scratch holds the reusable working arrays of the flat solvers. The zero
// value is ready to use; arrays grow on demand and are retained across
// calls, so steady-state solves allocate nothing.
type Scratch struct {
	// Hungarian: dual potentials u, v; p[j] is the row matched to column
	// j (1-based, column 0 is the virtual root); way/minv/used are the
	// shortest-augmenting-path state.
	u, v, p, way, minv []int
	used               []bool
	// Greedy: edges packed as weight<<32 | row<<16 | col so an integer
	// sort yields the (weight, row, col) order, plus the matching state.
	edges    []uint64
	rowTaken []bool
	colTaken []bool
}

// grow readies the Hungarian arrays for an n x n solve.
func (s *Scratch) grow(n int) {
	if cap(s.u) < n+1 {
		c := 2 * (n + 1)
		s.u = make([]int, n+1, c)
		s.v = make([]int, n+1, c)
		s.p = make([]int, n+1, c)
		s.way = make([]int, n+1, c)
		s.minv = make([]int, n+1, c)
		s.used = make([]bool, n+1, c)
	}
	s.u = s.u[:n+1]
	s.v = s.v[:n+1]
	s.p = s.p[:n+1]
	s.way = s.way[:n+1]
	s.minv = s.minv[:n+1]
	s.used = s.used[:n+1]
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j], s.p[j] = 0, 0, 0
	}
}

// HungarianFlat returns the minimum-cost perfect matching total of the
// n x n row-major matrix cost, bounded by budget max: if the optimum
// exceeds max, it returns (lower bound > max, false, early) where early
// reports whether the solve was abandoned before all rows were assigned.
// A budget no smaller than the sum of all cells cannot bind.
//
// The solver is the same potential-based shortest-augmenting-path
// formulation as Hungarian, made allocation-free by the Scratch and
// budget-aware by checking the partial-matching cost after every
// augmentation (a valid lower bound on the optimum; see the package
// comment above).
func (s *Scratch) HungarianFlat(cost []int, n, max int) (total int, ok, early bool) {
	if n == 0 {
		return 0, 0 <= max, false
	}
	s.grow(n)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			row := cost[(i0-1)*n:]
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
		// Partial-matching cost after augmenting i rows: a lower bound
		// on the full optimum, monotone in i, and the optimum at i = n.
		total = 0
		for j := 1; j <= n; j++ {
			if p[j] > 0 {
				total += cost[(p[j]-1)*n+(j-1)]
			}
		}
		if total > max {
			return total, false, i < n
		}
	}
	return total, true, false
}

// GreedyFlat returns the greedy matching total of the n x n row-major
// matrix cost — repeatedly the globally cheapest remaining edge, ties
// broken by (row, col) exactly as Greedy — bounded by budget max with the
// same contract as HungarianFlat. The running total is a lower bound on
// the final greedy total (edges are non-negative), so the solve aborts
// the moment it exceeds max.
//
// Preconditions (from the uint64 edge packing, cost<<32 | row<<16 | col):
// costs must be non-negative and < 2^32, and n < 2^16. Token cost
// matrices satisfy all three by construction (cells are capped token
// Levenshtein distances, rows are token counts).
//
// Note the budget compares against the greedy total, an upper bound on
// the true SLD, preserving the greedy aligner's one-sided error: bounded
// greedy accepts exactly the pairs whose greedy total is within max.
func (s *Scratch) GreedyFlat(cost []int, n, max int) (total int, ok, early bool) {
	if n == 0 {
		return 0, 0 <= max, false
	}
	if cap(s.edges) < n*n {
		s.edges = make([]uint64, 0, 2*n*n)
	}
	s.edges = s.edges[:0]
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			s.edges = append(s.edges, uint64(cost[r*n+c])<<32|uint64(r)<<16|uint64(c))
		}
	}
	slices.Sort(s.edges)
	if cap(s.rowTaken) < n {
		s.rowTaken = make([]bool, n, 2*n)
		s.colTaken = make([]bool, n, 2*n)
	}
	s.rowTaken = s.rowTaken[:n]
	s.colTaken = s.colTaken[:n]
	for i := 0; i < n; i++ {
		s.rowTaken[i], s.colTaken[i] = false, false
	}
	matched := 0
	for _, e := range s.edges {
		r := int(e >> 16 & 0xffff)
		c := int(e & 0xffff)
		if s.rowTaken[r] || s.colTaken[c] {
			continue
		}
		s.rowTaken[r] = true
		s.colTaken[c] = true
		total += int(e >> 32)
		matched++
		if total > max {
			return total, false, matched < n
		}
		if matched == n {
			break
		}
	}
	return total, true, false
}
