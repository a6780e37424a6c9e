package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Edit is one mutation of an evolving matrix: setting the value at a
// coordinate (an edge insert, or a weight update when the edge already
// exists) or deleting the coordinate (Del true; Val is ignored). Streams of
// edits model the evolving-graph workloads GNN systems see between
// inference batches.
type Edit struct {
	Row, Col int32
	Val      float64
	Del      bool
}

// ApplyEdits applies an edit stream to a row-major deduplicated matrix
// incrementally: one merge pass over the existing nonzeros and the sorted
// edits, O(nnz + len(edits)·log(len(edits))), instead of re-sorting the
// whole matrix. Stream order is honored — when several edits touch one
// coordinate, the last one wins. Deleting an absent coordinate is a no-op.
// The matrix remains row-major and deduplicated, so the result is
// indistinguishable from rebuilding the matrix from scratch with the same
// final edge set (the invariant the evolving-workload property tests pin).
func (m *COO) ApplyEdits(edits []Edit) error {
	if len(edits) == 0 {
		return nil
	}
	for i, e := range edits {
		if e.Row < 0 || int(e.Row) >= m.N || e.Col < 0 || int(e.Col) >= m.N {
			return fmt.Errorf("sparse: edit %d at (%d,%d) out of range for N=%d",
				i, e.Row, e.Col, m.N)
		}
	}

	// Order the stream by (row, col, stream index) and keep the last edit
	// per coordinate: exactly what a stable (row, col) sort followed by
	// last-wins dedup keeps. Small matrices pack the order into one uint64
	// key per edit (row:20 | col:20 | idx:24), as SortRowMajor does; the
	// rest sort an index permutation with the same total order.
	es := make([]Edit, 0, len(edits))
	keep := func(i int) {
		e := edits[i]
		if n := len(es); n > 0 && es[n-1].Row == e.Row && es[n-1].Col == e.Col {
			es[n-1] = e
			return
		}
		es = append(es, e)
	}
	if m.N <= 1<<20 && len(edits) < 1<<24 {
		keys := make([]uint64, len(edits))
		for i, e := range edits {
			keys[i] = uint64(e.Row)<<44 | uint64(e.Col)<<24 | uint64(i)
		}
		sortPacked(keys) // the idx bytes are already ascending
		for _, k := range keys {
			keep(int(k & (1<<24 - 1)))
		}
	} else {
		perm := make([]int, len(edits))
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(a, b int) int {
			return cmp.Or(cmp.Compare(edits[a].Row, edits[b].Row),
				cmp.Compare(edits[a].Col, edits[b].Col), cmp.Compare(a, b))
		})
		for _, p := range perm {
			keep(p)
		}
	}

	// Merge the sorted edits into the row-major nonzeros.
	nnz := m.NNZ()
	rows := make([]int32, 0, nnz+len(es))
	cols := make([]int32, 0, nnz+len(es))
	vals := make([]float64, 0, nnz+len(es))
	i, j := 0, 0
	for i < nnz && j < len(es) {
		cmp := int(m.Rows[i]) - int(es[j].Row)
		if cmp == 0 {
			cmp = int(m.Cols[i]) - int(es[j].Col)
		}
		switch {
		case cmp < 0: // existing nonzero untouched by the stream
			rows = append(rows, m.Rows[i])
			cols = append(cols, m.Cols[i])
			vals = append(vals, m.Vals[i])
			i++
		case cmp > 0: // edit at a coordinate with no existing nonzero
			if !es[j].Del {
				rows = append(rows, es[j].Row)
				cols = append(cols, es[j].Col)
				vals = append(vals, es[j].Val)
			}
			j++
		default: // edit overwrites (or deletes) an existing nonzero
			if !es[j].Del {
				rows = append(rows, es[j].Row)
				cols = append(cols, es[j].Col)
				vals = append(vals, es[j].Val)
			}
			i++
			j++
		}
	}
	for ; i < nnz; i++ {
		rows = append(rows, m.Rows[i])
		cols = append(cols, m.Cols[i])
		vals = append(vals, m.Vals[i])
	}
	for ; j < len(es); j++ {
		if !es[j].Del {
			rows = append(rows, es[j].Row)
			cols = append(cols, es[j].Col)
			vals = append(vals, es[j].Val)
		}
	}
	m.Rows, m.Cols, m.Vals = rows, cols, vals
	return nil
}
