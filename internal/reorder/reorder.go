// Package reorder implements sparse-matrix reordering passes that transform
// a matrix into an equivalent, more "favorable" form for HotTiles. The
// paper (§IX-D, citing Arai et al.'s Rabbit Order, and §X) observes that
// reordered matrices form better-defined dense and sparse regions, which
// increases the effectiveness of IMH-aware partitioning. Three passes are
// provided:
//
//   - DegreeSort: rows/columns sorted by descending degree, concentrating
//     hubs (the "hot" structure of power-law graphs) in the top-left corner;
//   - BFSCluster: a breadth-first relabeling from a pseudo-peripheral seed
//     (Cuthill-McKee-like) that gathers communities near the diagonal;
//   - Random: a random symmetric permutation, the destructive control used
//     in ablations.
//
// All passes return the permutation applied symmetrically (rows and
// columns), so the product A' = P·A·Pᵀ is similar to A and SpMM results can
// be mapped back with the returned permutation.
package reorder

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/sparse"
)

// Permutation maps old index → new index.
type Permutation []int32

// Validate checks that p is a bijection on [0, len).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || int(v) >= len(p) {
			return fmt.Errorf("reorder: image %d of %d out of range", v, i)
		}
		if seen[v] {
			return fmt.Errorf("reorder: image %d duplicated", v)
		}
		seen[v] = true
	}
	return nil
}

// Inverse returns the inverse permutation.
func (p Permutation) Inverse() Permutation {
	inv := make(Permutation, len(p))
	for i, v := range p {
		inv[v] = int32(i)
	}
	return inv
}

// Apply returns P·A·Pᵀ as a new row-major matrix.
func Apply(m *sparse.COO, p Permutation) (*sparse.COO, error) {
	if len(p) != m.N {
		return nil, fmt.Errorf("reorder: permutation length %d, matrix %d", len(p), m.N)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := sparse.NewCOO(m.N, m.NNZ())
	for i := 0; i < m.NNZ(); i++ {
		r, c, v := m.At(i)
		out.Append(p[r], p[c], v)
	}
	out.SortRowMajor()
	return out, nil
}

// DegreeSort returns the permutation that relabels vertices by descending
// total degree (in + out), ties broken by original index for determinism.
func DegreeSort(m *sparse.COO) Permutation {
	deg := make([]int, m.N)
	for i := 0; i < m.NNZ(); i++ {
		r, c, _ := m.At(i)
		deg[r]++
		deg[c]++
	}
	order := make([]int, m.N)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(deg[b], deg[a]) })
	p := make(Permutation, m.N)
	for newID, oldID := range order {
		p[oldID] = int32(newID)
	}
	return p
}

// BFSCluster returns a breadth-first relabeling: starting from the
// lowest-degree vertex (a pseudo-peripheral seed, as in Cuthill-McKee),
// vertices are numbered in BFS discovery order, which pulls connected
// communities toward the diagonal. Unreached vertices (other components)
// seed further traversals in degree order.
func BFSCluster(m *sparse.COO) Permutation {
	// Build adjacency (undirected view) as CSR of the symmetrized pattern.
	off, nbrs := buildAdjacency(m)

	deg := make([]int, m.N)
	for v := range deg {
		deg[v] = off[v+1] - off[v]
	}
	seeds := make([]int, m.N)
	for i := range seeds {
		seeds[i] = i
	}
	slices.SortStableFunc(seeds, func(a, b int) int { return cmp.Compare(deg[a], deg[b]) })

	p := make(Permutation, m.N)
	visited := make([]bool, m.N)
	next := int32(0)
	queue := make([]int32, 0, m.N)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			p[v] = next
			next++
			for _, u := range nbrs[off[v]:off[v+1]] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return p
}

// Random returns a uniformly random permutation (deterministic in seed) —
// the destructive control for reordering ablations.
func Random(n int, seed int64) Permutation {
	rng := rand.New(rand.NewSource(seed))
	p := make(Permutation, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

// buildAdjacency returns the symmetrized neighbor lists of m as one flat
// array: v's neighbors are nbrs[off[v]:off[v+1]], in nonzero order.
func buildAdjacency(m *sparse.COO) (off []int, nbrs []int32) {
	off = make([]int, m.N+1)
	for i := 0; i < m.NNZ(); i++ {
		r, c, _ := m.At(i)
		if r == c {
			continue
		}
		off[r+1]++
		off[c+1]++
	}
	for v := range m.N {
		off[v+1] += off[v]
	}
	nbrs = make([]int32, off[m.N])
	next := slices.Clone(off[:m.N])
	for i := 0; i < m.NNZ(); i++ {
		r, c, _ := m.At(i)
		if r == c {
			continue
		}
		nbrs[next[r]] = c
		next[r]++
		nbrs[next[c]] = r
		next[c]++
	}
	return off, nbrs
}

// Bandwidth returns the matrix bandwidth max|r−c| over nonzeros — the
// locality statistic BFSCluster aims to shrink.
func Bandwidth(m *sparse.COO) int {
	bw := 0
	for i := 0; i < m.NNZ(); i++ {
		r, c, _ := m.At(i)
		d := int(r) - int(c)
		if d < 0 {
			d = -d
		}
		if d > bw {
			bw = d
		}
	}
	return bw
}
