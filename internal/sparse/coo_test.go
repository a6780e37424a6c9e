package sparse

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func mkCOO(t *testing.T, n int, trip [][3]int) *COO {
	t.Helper()
	m := NewCOO(n, len(trip))
	for _, e := range trip {
		m.Append(int32(e[0]), int32(e[1]), float64(e[2]))
	}
	return m
}

func TestCOOAppendAndAt(t *testing.T) {
	m := NewCOO(4, 2)
	m.Append(1, 2, 3.5)
	m.Append(3, 0, -1)
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	r, c, v := m.At(0)
	if r != 1 || c != 2 || v != 3.5 {
		t.Fatalf("At(0) = (%d,%d,%g)", r, c, v)
	}
}

func TestSortRowMajor(t *testing.T) {
	m := mkCOO(t, 4, [][3]int{{3, 1, 1}, {0, 2, 2}, {3, 0, 3}, {0, 0, 4}})
	m.SortRowMajor()
	if !m.IsRowMajor() {
		t.Fatal("not row-major after sort")
	}
	wantRows := []int32{0, 0, 3, 3}
	wantCols := []int32{0, 2, 0, 1}
	wantVals := []float64{4, 2, 3, 1}
	for i := range wantRows {
		r, c, v := m.At(i)
		if r != wantRows[i] || c != wantCols[i] || v != wantVals[i] {
			t.Errorf("nz %d = (%d,%d,%g), want (%d,%d,%g)",
				i, r, c, v, wantRows[i], wantCols[i], wantVals[i])
		}
	}
}

func TestSortRowMajorAlreadySortedNoop(t *testing.T) {
	m := mkCOO(t, 3, [][3]int{{0, 1, 1}, {1, 0, 2}, {2, 2, 3}})
	m.SortRowMajor()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDedupSum(t *testing.T) {
	m := mkCOO(t, 3, [][3]int{{0, 0, 1}, {0, 0, 2}, {1, 1, 3}, {1, 1, 4}, {2, 0, 5}})
	m.DedupSum()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ after dedup = %d, want 3", m.NNZ())
	}
	if m.Vals[0] != 3 || m.Vals[1] != 7 || m.Vals[2] != 5 {
		t.Fatalf("vals = %v, want [3 7 5]", m.Vals)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDedupSumEmpty(t *testing.T) {
	m := NewCOO(3, 0)
	m.DedupSum() // must not panic
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCOO(rng, 32, 100)
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() {
		t.Fatalf("nnz changed: %d -> %d", m.NNZ(), tt.NNZ())
	}
	for i := 0; i < m.NNZ(); i++ {
		r1, c1, v1 := m.At(i)
		r2, c2, v2 := tt.At(i)
		if r1 != r2 || c1 != c2 || v1 != v2 {
			t.Fatalf("nz %d differs: (%d,%d,%g) vs (%d,%d,%g)", i, r1, c1, v1, r2, c2, v2)
		}
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	m := mkCOO(t, 2, [][3]int{{0, 5, 1}})
	if err := m.Validate(); err == nil {
		t.Fatal("expected out-of-range error")
	}
	m = mkCOO(t, 2, [][3]int{{1, 0, 1}, {0, 0, 1}})
	if err := m.Validate(); err == nil {
		t.Fatal("expected ordering error")
	}
	m = mkCOO(t, 2, [][3]int{{0, 0, 1}, {0, 0, 2}})
	if err := m.Validate(); err == nil {
		t.Fatal("expected duplicate error")
	}
	m = &COO{N: 0}
	if err := m.Validate(); err == nil {
		t.Fatal("expected dimension error")
	}
	m = &COO{N: 2, Rows: []int32{0}, Cols: nil, Vals: nil}
	if err := m.Validate(); err == nil {
		t.Fatal("expected ragged-slice error")
	}
}

func TestDensity(t *testing.T) {
	m := mkCOO(t, 10, [][3]int{{0, 0, 1}, {5, 5, 1}})
	if d := m.Density(); d != 0.02 {
		t.Fatalf("density = %g, want 0.02", d)
	}
	if d := (&COO{}).Density(); d != 0 {
		t.Fatalf("empty density = %g", d)
	}
}

func TestRowNNZ(t *testing.T) {
	m := mkCOO(t, 3, [][3]int{{0, 0, 1}, {0, 1, 1}, {2, 2, 1}})
	counts := m.RowNNZ()
	want := []int{2, 0, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("row %d count %d, want %d", i, counts[i], w)
		}
	}
}

// randomCOO builds a valid random row-major deduplicated COO.
func randomCOO(rng *rand.Rand, n, nnz int) *COO {
	m := NewCOO(n, nnz)
	seen := map[[2]int32]bool{}
	for len(seen) < nnz && len(seen) < n*n {
		r, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		if seen[[2]int32{r, c}] {
			continue
		}
		seen[[2]int32{r, c}] = true
		m.Append(r, c, rng.NormFloat64())
	}
	m.SortRowMajor()
	return m
}

// Property: sort is idempotent and preserves the multiset of entries.
func TestSortRowMajorProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		nnz := rng.Intn(200)
		m := NewCOO(n, nnz)
		for i := 0; i < nnz; i++ {
			m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64())
		}
		before := append([]float64(nil), m.Vals...)
		m.SortRowMajor()
		if !m.IsRowMajor() || m.NNZ() != nnz {
			return false
		}
		after := append([]float64(nil), m.Vals...)
		sort.Float64s(before)
		sort.Float64s(after)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSortUint64FromByte pins the radix sort against the library sort, for
// full-key sorting and for the packed-key mode that skips the pre-sorted
// index bytes, well above the radix cutover size.
func TestSortUint64FromByte(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 255, 256, 4096, 100000} {
		full := make([]uint64, n)
		for i := range full {
			full[i] = rng.Uint64()
		}
		want := append([]uint64(nil), full...)
		slices.Sort(want)
		sortUint64(full, 0)
		if !slices.Equal(full, want) {
			t.Fatalf("n=%d: full-key radix sort diverges from slices.Sort", n)
		}

		// Packed mode: high 40 bits random, low 24 bits the ascending index.
		packed := make([]uint64, n)
		for i := range packed {
			packed[i] = rng.Uint64()<<24 | uint64(i)
		}
		want = append([]uint64(nil), packed...)
		slices.Sort(want)
		sortUint64(packed, 3)
		if !slices.Equal(packed, want) {
			t.Fatalf("n=%d: packed-key radix sort diverges from slices.Sort", n)
		}
	}
}

// TestSortUint64Allocs pins the key sort to zero allocations per call on
// both sides of the radix cutover: the comparison sort below it, and the
// radix sort above it once the pooled scratch has grown.
func TestSortUint64Allocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{radixMin - 1, 4096} {
		in := make([]uint64, n)
		for i := range in {
			in[i] = rng.Uint64()
		}
		s := make([]uint64, n)
		run := func() {
			copy(s, in)
			sortUint64(s, 0)
		}
		run() // grow the pooled radix scratch
		// -race drops a quarter of sync.Pool puts at random; over 100 runs
		// the truncated per-run average of those refills stays 0.
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("n=%d: sortUint64 allocated %v times per call, want 0", n, got)
		}
	}
}

// TestSortRowMajorMatchesStable pins the packed-key fast path against the
// definitional stable comparison sort at a size well above the radix
// cutover, with many duplicate coordinates so stability actually bites.
func TestSortRowMajorMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, nnz = 64, 50000 // heavy duplication: ~12 entries per coordinate
	m := NewCOO(n, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), float64(i))
	}
	ref := m.Clone()
	type entry struct {
		r, c int32
		v    float64
	}
	ents := make([]entry, nnz)
	for i := range ents {
		ents[i] = entry{ref.Rows[i], ref.Cols[i], ref.Vals[i]}
	}
	sort.SliceStable(ents, func(a, b int) bool {
		if ents[a].r != ents[b].r {
			return ents[a].r < ents[b].r
		}
		return ents[a].c < ents[b].c
	})
	m.SortRowMajor()
	for i := range ents {
		if m.Rows[i] != ents[i].r || m.Cols[i] != ents[i].c || m.Vals[i] != ents[i].v {
			t.Fatalf("entry %d: got (%d,%d,%v), stable sort wants (%d,%d,%v)",
				i, m.Rows[i], m.Cols[i], m.Vals[i], ents[i].r, ents[i].c, ents[i].v)
		}
	}
}

// TestSortRowMajorFallbackAllocs pins the comparison-sort fallback (taken
// when a coordinate does not fit the packed key's 20-bit field) and its
// applyPerm gather to an allocation count that does not grow with the
// number of nonzeros: each array is made once per sort, never per entry.
func TestSortRowMajorFallbackAllocs(t *testing.T) {
	measure := func(nnz int) float64 {
		rng := rand.New(rand.NewSource(int64(nnz)))
		const n = 1 << 21
		m := NewCOO(n, nnz)
		for i := 0; i < nnz; i++ {
			m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), float64(i))
		}
		rows, cols, vals := m.Rows, m.Cols, m.Vals
		allocs := testing.AllocsPerRun(20, func() {
			m.Rows, m.Cols, m.Vals = rows, cols, vals // the sort leaves these unsorted inputs intact
			m.SortRowMajor()
		})
		if !m.IsRowMajor() {
			t.Fatalf("nnz %d: fallback sort left the matrix out of row-major order", nnz)
		}
		return allocs
	}
	small, large := measure(256), measure(8192)
	if small != large {
		t.Fatalf("fallback SortRowMajor allocated %v times at nnz 256, %v at nnz 8192: want a count independent of nnz", small, large)
	}
}

// Property: transpose preserves nnz and swaps coordinates.
func TestTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCOO(rng, 1+rng.Intn(30), rng.Intn(150))
		tr := m.Transpose()
		if tr.NNZ() != m.NNZ() || tr.Validate() != nil {
			return false
		}
		// Every entry of m appears transposed in tr.
		set := map[[2]int32]float64{}
		for i := 0; i < tr.NNZ(); i++ {
			r, c, v := tr.At(i)
			set[[2]int32{r, c}] = v
		}
		for i := 0; i < m.NNZ(); i++ {
			r, c, v := m.At(i)
			if set[[2]int32{c, r}] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	m := mkCOO(t, 3, [][3]int{{0, 0, 1}, {1, 2, 2}})
	c := m.Clone()
	c.Vals[0] = 99
	c.Rows[0] = 2
	if m.Vals[0] != 1 || m.Rows[0] != 0 {
		t.Fatal("clone aliases original storage")
	}
}

// serialRowMajor is the one-chunk packed sort SortRowMajor ran before it
// went parallel: build the keys, sortUint64 them, gather through the
// permutation. It is the oracle for the pool-parallel path.
func serialRowMajor(m *COO) *COO {
	keys := make([]uint64, m.NNZ())
	for i := range keys {
		keys[i] = uint64(m.Rows[i])<<44 | uint64(m.Cols[i])<<24 | uint64(i)
	}
	sortUint64(keys, 3)
	out := NewCOO(m.N, len(keys))
	for _, k := range keys {
		p := k & (1<<24 - 1)
		out.Append(m.Rows[p], m.Cols[p], m.Vals[p])
	}
	return out
}

// TestSortRowMajorParallelMatchesSerial pins the pool-parallel packed sort
// (one MSD pass, then sortUint64 per bucket) to the serial sortUint64
// result at 1, 2 and 5 workers, on inputs large enough to split into five
// chunks: random coordinates with heavy duplication, coordinates that all
// fall in one MSD bucket, and coordinates spread over the full 2^20 range.
func TestSortRowMajorParallelMatchesSerial(t *testing.T) {
	const nnz = 6 * sortChunkMin
	inputs := map[string]func(rng *rand.Rand) (n int, r, c int32){
		"duplicates": func(rng *rand.Rand) (int, int32, int32) {
			return 64, int32(rng.Intn(64)), int32(rng.Intn(64))
		},
		"one bucket": func(rng *rand.Rand) (int, int32, int32) {
			return 60000, 5, int32(rng.Intn(60000))
		},
		"full range": func(rng *rand.Rand) (int, int32, int32) {
			return 1 << 20, int32(rng.Intn(1 << 20)), int32(rng.Intn(1 << 20))
		},
	}
	for name, draw := range inputs {
		rng := rand.New(rand.NewSource(11))
		n, _, _ := draw(rng)
		m := NewCOO(n, nnz)
		for i := 0; i < nnz; i++ {
			_, r, c := draw(rng)
			m.Append(r, c, float64(i))
		}
		want := serialRowMajor(m)
		for _, w := range []int{1, 2, 5} {
			func() {
				defer par.SetWorkers(par.SetWorkers(w))
				got := m.Clone()
				got.SortRowMajor()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d workers: parallel sort differs from the serial sortUint64 order", name, w)
				}
			}()
		}
	}
}

// TestSortPackedIdxOnly covers keys whose rows and columns are all zero:
// no byte above the index is occupied, so the keys are already sorted.
func TestSortPackedIdxOnly(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(2))
	keys := make([]uint64, 3*sortChunkMin)
	for i := range keys {
		keys[i] = uint64(i)
	}
	want := slices.Clone(keys)
	sortPacked(keys)
	if !slices.Equal(keys, want) {
		t.Fatal("sortPacked reordered keys that were already ascending")
	}
}

// BenchmarkSortRowMajorRest measures the two ways SortRowMajor can order a
// row-major base of 2^17 nonzeros followed by an unsorted rest of
// 1/share of them: merging the sorted rest into the base ("merge", the
// path up to 1/restShare) and sorting everything ("full"). The crossover
// of the two sets restShare (DESIGN.md §9).
func BenchmarkSortRowMajorRest(b *testing.B) {
	const n, nnz = 1 << 16, 1 << 17
	for _, share := range []int{2048, 64, 16, 8, 4, 2} {
		rng := rand.New(rand.NewSource(int64(share)))
		base := randomCOO(rng, n, nnz-nnz/share)
		base.sortAll()
		for range nnz / share {
			base.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64())
		}
		p := base.sortedPrefix()
		for _, path := range []struct {
			name string
			sort func(m *COO)
		}{{"merge", func(m *COO) { m.mergeRest(p) }}, {"full", (*COO).sortAll}} {
			for _, w := range []int{1, 2} {
				b.Run(fmt.Sprintf("rest=1/%d/%s/workers=%d", share, path.name, w), func(b *testing.B) {
					defer par.SetWorkers(par.SetWorkers(w))
					m := base.Clone()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(m.Rows, base.Rows)
						copy(m.Cols, base.Cols)
						copy(m.Vals, base.Vals)
						b.StartTimer()
						path.sort(m)
					}
				})
			}
		}
	}
}
