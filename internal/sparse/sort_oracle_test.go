package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
)

// sortStableOracle is the definition SortRowMajor must meet: the entries,
// each with its value, stably sorted by (row, col) with
// slices.SortStableFunc.
func sortStableOracle(m *COO) *COO {
	type entry struct {
		r, c int32
		v    float64
	}
	es := make([]entry, m.NNZ())
	for i := range es {
		es[i] = entry{m.Rows[i], m.Cols[i], m.Vals[i]}
	}
	slices.SortStableFunc(es, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.r, b.r), cmp.Compare(a.c, b.c))
	})
	out := NewCOO(m.N, len(es))
	for _, e := range es {
		out.Append(e.r, e.c, e.v)
	}
	return out
}

// prefixAndRest builds a matrix of dimension n whose first len(prefix)
// entries are row-major and whose first rest entry sorts before the last
// prefix entry, so the sorted prefix is exactly the prefix. Every entry
// gets a distinct value, so the order of equal coordinates shows.
func prefixAndRest(n int, prefix, rest [][2]int32) *COO {
	slices.SortFunc(prefix, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	m := NewCOO(n, len(prefix)+len(rest))
	for _, e := range append(slices.Clone(prefix), rest...) {
		m.Append(e[0], e[1], float64(m.NNZ()))
	}
	return m
}

// TestSortRowMajorMatchesStableSortOracle compares SortRowMajor, bit for
// bit and values included, with slices.SortStableFunc on (row, col), at 1
// and 2 workers, on the shapes its two paths meet: a sorted matrix (empty
// rest), a rest of one entry, a rest entirely before and entirely after
// the prefix, a rest repeating prefix coordinates, rests at the merge
// cut-off and one entry either side of it (the longer ones large enough
// for the parallel sort), the empty matrix (sorted prefix 0) and a sorted
// prefix of 1. It also checks what SortRowMajor reports it kept.
func TestSortRowMajorMatchesStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	coords := func(cnt int, rows, cols [2]int32) [][2]int32 {
		out := make([][2]int32, cnt)
		for i := range out {
			out[i] = [2]int32{rows[0] + rng.Int31n(rows[1]-rows[0]), cols[0] + rng.Int31n(cols[1]-cols[0])}
		}
		return out
	}
	const n = 1 << 12
	all := [2]int32{0, n}
	type tc struct {
		name  string
		m     *COO
		wantP int
	}
	var cases []tc
	add := func(name string, prefix, rest [][2]int32) {
		cases = append(cases, tc{name, prefixAndRest(n, prefix, rest), len(prefix)})
	}
	sorted := prefixAndRest(n, coords(5000, all, all), nil)
	cases = append(cases, tc{"empty rest", sorted, 5000})
	add("rest of 1", coords(5000, [2]int32{1, n}, all), [][2]int32{{0, 7}})
	add("rest before prefix", coords(5000, [2]int32{n / 2, n}, all), coords(300, [2]int32{0, n / 2}, all))
	// Descending, so that only the rest's first entry continues the prefix.
	after := coords(300, [2]int32{n / 2, n}, all)
	slices.SortFunc(after, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(b[0], a[0]), cmp.Compare(b[1], a[1]))
	})
	m := prefixAndRest(n, coords(5000, [2]int32{0, n / 2}, all), after)
	cases = append(cases, tc{"rest after prefix", m, 5001})
	dupPrefix := coords(5000, [2]int32{0, 64}, [2]int32{0, 64}) // ~1.2 entries per coordinate
	dupRest := slices.Clone(dupPrefix[:400])
	rng.Shuffle(len(dupRest), func(i, j int) { dupRest[i], dupRest[j] = dupRest[j], dupRest[i] })
	dupRest = append([][2]int32{{0, 0}}, dupRest...)
	add("rest duplicating prefix coordinates", append(dupPrefix, [2]int32{63, 63}), dupRest)
	for _, nnz := range []int{800, 80_000} {
		cut := nnz / restShare
		for _, r := range []int{cut - 1, cut, cut + 1} {
			rest := append([][2]int32{{0, 0}}, coords(r-1, all, all)...)
			add(fmt.Sprintf("rest %d of %d", r, nnz), coords(nnz-r, [2]int32{1, n}, all), rest)
		}
	}
	cases = append(cases, tc{"empty matrix", NewCOO(n, 0), 0})
	add("sorted prefix 1", coords(1, [2]int32{n - 1, n}, all), coords(3000, [2]int32{0, n - 1}, all))

	for _, c := range cases {
		if p := c.m.sortedPrefix(); p != c.wantP {
			t.Fatalf("%s: the test built a sorted prefix of %d, want %d", c.name, p, c.wantP)
		}
		nnz := c.m.NNZ()
		wantKept := 0
		switch {
		case c.wantP == nnz:
			wantKept = nnz
		case nnz-c.wantP <= nnz/restShare:
			wantKept = c.wantP
		}
		want := sortStableOracle(c.m)
		for _, w := range []int{1, 2} {
			func() {
				defer par.SetWorkers(par.SetWorkers(w))
				got := c.m.Clone()
				if kept := got.SortRowMajor(); kept != wantKept {
					t.Errorf("%s, %d workers: SortRowMajor kept %d, want %d", c.name, w, kept, wantKept)
				}
				if got.NNZ() != nnz {
					t.Fatalf("%s, %d workers: %d nonzeros, want %d", c.name, w, got.NNZ(), nnz)
				}
				for i := range nnz {
					if got.Rows[i] != want.Rows[i] || got.Cols[i] != want.Cols[i] ||
						math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
						t.Fatalf("%s, %d workers: entry %d is (%d,%d,%v), the stable sort's (%d,%d,%v)",
							c.name, w, i, got.Rows[i], got.Cols[i], got.Vals[i], want.Rows[i], want.Cols[i], want.Vals[i])
					}
				}
			}()
		}
	}
}
