package sparse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// applyEditsStable is the edit application ApplyEdits replaced, kept as an
// oracle: a stable (row, col) sort of a copy of the stream, last-wins
// dedup, then the same merge into the row-major nonzeros.
func applyEditsStable(m *COO, edits []Edit) *COO {
	if len(edits) == 0 {
		return m
	}
	es := append([]Edit(nil), edits...)
	slices.SortStableFunc(es, func(a, b Edit) int {
		switch {
		case a.Row != b.Row:
			return int(a.Row) - int(b.Row)
		case a.Col != b.Col:
			return int(a.Col) - int(b.Col)
		default:
			return 0
		}
	})
	w := 0
	for i := 1; i < len(es); i++ {
		if es[i].Row == es[w].Row && es[i].Col == es[w].Col {
			es[w] = es[i]
			continue
		}
		w++
		es[w] = es[i]
	}
	es = es[:w+1]

	out := &COO{N: m.N, Rows: []int32{}, Cols: []int32{}, Vals: []float64{}}
	add := func(r, c int32, v float64) {
		out.Rows = append(out.Rows, r)
		out.Cols = append(out.Cols, c)
		out.Vals = append(out.Vals, v)
	}
	i, j := 0, 0
	for i < m.NNZ() || j < len(es) {
		cmp := -1
		switch {
		case i == m.NNZ():
			cmp = 1
		case j < len(es):
			cmp = int(m.Rows[i]) - int(es[j].Row)
			if cmp == 0 {
				cmp = int(m.Cols[i]) - int(es[j].Col)
			}
		}
		if cmp < 0 {
			add(m.Rows[i], m.Cols[i], m.Vals[i])
			i++
			continue
		}
		if !es[j].Del {
			add(es[j].Row, es[j].Col, es[j].Val)
		}
		if cmp == 0 {
			i++
		}
		j++
	}
	return out
}

// collidingEdits draws a stream over a small pool of coordinates — so most
// coordinates are edited many times — mixing inserts, updates, deletes of
// present and absent coordinates, and insert/delete/insert runs on one
// coordinate.
func collidingEdits(rng *rand.Rand, n, pool, count int) []Edit {
	coords := make([][2]int32, pool)
	for i := range coords {
		coords[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	edits := make([]Edit, 0, count+3)
	for len(edits) < count {
		c := coords[rng.Intn(pool)]
		switch rng.Intn(5) {
		case 0:
			edits = append(edits, Edit{Row: c[0], Col: c[1], Del: true})
		case 1:
			edits = append(edits,
				Edit{Row: c[0], Col: c[1], Val: rng.Float64() + 0.5},
				Edit{Row: c[0], Col: c[1], Del: true},
				Edit{Row: c[0], Col: c[1], Val: rng.Float64() + 0.5})
		default:
			edits = append(edits, Edit{Row: c[0], Col: c[1], Val: rng.Float64() + 0.5})
		}
	}
	return edits
}

// TestApplyEditsMatchesStableSortOracle pins ApplyEdits to the stable-sort
// oracle on both of its sort paths: matrices with N ≤ 2^20 (packed keys,
// radix-sorted once the stream passes 256 edits) and N > 2^20 (the index
// permutation).
func TestApplyEditsMatchesStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 1 << 20, 1<<20 + 7} {
		for trial := 0; trial < 20; trial++ {
			m := NewCOO(n, 0)
			for _, e := range collidingEdits(rng, n, 50, 200) {
				if !e.Del {
					m.Append(e.Row, e.Col, e.Val)
				}
			}
			m.SortRowMajor()
			m.DedupSum()
			for batch := 0; batch < 3; batch++ {
				edits := collidingEdits(rng, n, 1+rng.Intn(300), rng.Intn(2000))
				if rng.Intn(2) == 0 && m.NNZ() > 0 { // delete present coordinates too
					j := rng.Intn(m.NNZ())
					edits = append(edits, Edit{Row: m.Rows[j], Col: m.Cols[j], Del: true})
				}
				want := applyEditsStable(m, edits)
				if err := m.ApplyEdits(edits); err != nil {
					t.Fatalf("N=%d trial %d batch %d: %v", n, trial, batch, err)
				}
				if err := m.Validate(); err != nil {
					t.Fatalf("N=%d trial %d batch %d: invalid after edits: %v", n, trial, batch, err)
				}
				if !reflect.DeepEqual(m, want) {
					t.Fatalf("N=%d trial %d batch %d (%d edits): nnz %d, oracle nnz %d",
						n, trial, batch, len(edits), m.NNZ(), want.NNZ())
				}
			}
		}
	}
}
