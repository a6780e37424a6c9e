package dense

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// randSortedBig builds a random row-major matrix large enough to cross the
// parMinWork fan-out threshold at any K ≥ 1.
func randSortedBig(rng *rand.Rand, n, nnz int) *sparse.COO {
	m := sparse.NewCOO(n, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64()*2-1)
	}
	m.SortRowMajor()
	return m
}

// TestPanelParallelBitIdentical is the determinism property the panel
// fan-out promises: for every kernel, semiring, and worker count (including
// 1), the parallel output is bit-identical — Equal, not AlmostEqual — to the
// single-worker serial execution, because row-disjoint panels preserve each
// row's floating-point accumulation order.
func TestPanelParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, nnz, k := 512, 40000, 8
	m := randSortedBig(rng, n, nnz)
	csr := sparse.ToCSR(m)
	din := NewRandom(rng, n, k)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}

	semirings := []struct {
		name string
		sr   semiring.Semiring
	}{
		{"plus-times", semiring.PlusTimes()},
		{"min-plus", semiring.MinPlus()},
		{"max-plus", semiring.MaxPlus()},
	}

	// Single-worker references (rowCuts declines, the serial loops run).
	prev := par.SetWorkers(1)
	wantSpMM := NewMatrix(n, k)
	if err := SpMM(m, din, wantSpMM); err != nil {
		t.Fatal(err)
	}
	wantCSR := NewMatrix(n, k)
	if err := SpMMCSR(csr, din, wantCSR); err != nil {
		t.Fatal(err)
	}
	wantG := make([]*Matrix, len(semirings))
	for i, s := range semirings {
		wantG[i] = NewFilled(n, k, s.sr.AddIdentity)
		if err := GSpMM(m, din, wantG[i], s.sr); err != nil {
			t.Fatal(err)
		}
	}
	wantY := make([]float64, n)
	if err := SpMV(m, x, wantY); err != nil {
		t.Fatal(err)
	}
	wantS, err := SDDMM(m, din, din)
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(prev)
	defer par.SetWorkers(par.SetWorkers(prev))

	for _, w := range []int{1, 2, 3, 8} {
		par.SetWorkers(w)
		got := NewMatrix(n, k)
		if err := SpMM(m, din, got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(wantSpMM) {
			t.Fatalf("SpMM with %d workers differs from serial", w)
		}
		got = NewMatrix(n, k)
		if err := SpMMCSR(csr, din, got); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(wantCSR) {
			t.Fatalf("SpMMCSR with %d workers differs from serial", w)
		}
		for i, s := range semirings {
			got = NewFilled(n, k, s.sr.AddIdentity)
			if err := GSpMM(m, din, got, s.sr); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(wantG[i]) {
				t.Fatalf("GSpMM %s with %d workers differs from serial", s.name, w)
			}
		}
		y := make([]float64, n)
		if err := SpMV(m, x, y); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(y, wantY) {
			t.Fatalf("SpMV with %d workers differs from serial", w)
		}
		s, err := SDDMM(m, din, din)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s, wantS) {
			t.Fatalf("SDDMM with %d workers differs from serial", w)
		}
	}
}

// TestSpMMUnsortedFallsBack pins the fallback: a COO whose rows are not
// sorted cannot be row-panel split, so the parallel dispatch must detect it
// and produce the exact serial result (which visits nonzeros in input
// order — a different answer than any reordering under a non-commutative
// accumulation of rounding).
func TestSpMMUnsortedFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n, nnz, k := 256, 30000, 4
	m := sparse.NewCOO(n, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64()*2-1)
	}
	din := NewRandom(rng, n, k)

	prev := par.SetWorkers(1)
	want := NewMatrix(n, k)
	err := SpMM(m, din, want)
	par.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}

	defer par.SetWorkers(par.SetWorkers(8))
	if cuts := rowCuts(m.Rows, m.NNZ()*k); cuts != nil {
		t.Fatal("rowCuts accepted unsorted rows")
	}
	got := NewMatrix(n, k)
	if err := SpMM(m, din, got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("unsorted SpMM differs from serial")
	}
}

// TestRowCutsProperties checks the panel invariants on random sorted row
// arrays: cuts strictly increase from 0 to nnz (every nonzero in exactly one
// panel) and no row straddles a cut.
func TestRowCutsProperties(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		nnz := parMinWork + rng.Intn(20000)
		rows := make([]int32, nnz)
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		slices.Sort(rows)
		cuts := rowCuts(rows, nnz)
		if cuts == nil {
			continue // legal: too few distinct rows for two panels
		}
		if cuts[0] != 0 || cuts[len(cuts)-1] != nnz || len(cuts) < 3 {
			t.Fatalf("trial %d: bad cut endpoints %v", trial, cuts)
		}
		for i := 1; i < len(cuts); i++ {
			if cuts[i] <= cuts[i-1] {
				t.Fatalf("trial %d: cuts not strictly increasing: %v", trial, cuts)
			}
			if i < len(cuts)-1 && rows[cuts[i]] == rows[cuts[i]-1] {
				t.Fatalf("trial %d: row %d straddles cut %d", trial, rows[cuts[i]], cuts[i])
			}
		}
	}

	// One giant row admits no interior cut: serial.
	rows := make([]int32, parMinWork)
	if cuts := rowCuts(rows, len(rows)); cuts != nil {
		t.Fatalf("single-row matrix produced cuts %v", cuts)
	}
	// Below the work threshold: serial.
	if cuts := rowCuts([]int32{0, 1, 2, 3}, 4); cuts != nil {
		t.Fatal("tiny input produced cuts")
	}
	// One worker: serial.
	prev := par.SetWorkers(1)
	sorted := make([]int32, parMinWork)
	for i := range sorted {
		sorted[i] = int32(i)
	}
	cuts := rowCuts(sorted, len(sorted))
	par.SetWorkers(prev)
	if cuts != nil {
		t.Fatal("single-worker pool produced cuts")
	}
}

// TestPlusTimesRowKernelBitIdentical pins the plus-times row kernels to the
// generic closure path: GSpMM (serial and panel-parallel, accumulating onto
// a nonzero Dout) and GMerge must be Equal, not merely close, to the same
// algebra built by hand as a generic Semiring.
func TestPlusTimesRowKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, nnz, k := 512, 40000, 8
	m := randSortedBig(rng, n, nnz)
	din := NewRandom(rng, n, k)
	base := NewRandom(rng, n, k)
	fast := semiring.PlusTimes()
	slow := semiring.Semiring{
		Name: "plus-times-generic",
		Add:  func(a, b float64) float64 { return a + b },
		Mul:  func(a, b float64) float64 { return a * b },
	}
	defer par.SetWorkers(par.SetWorkers(1))
	for _, w := range []int{1, 4} {
		par.SetWorkers(w)
		got, want := base.Clone(), base.Clone()
		if err := GSpMM(m, din, got, fast); err != nil {
			t.Fatal(err)
		}
		if err := GSpMM(m, din, want, slow); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("GSpMM with %d workers: plus-times row kernel differs from generic", w)
		}
	}
	got, want := base.Clone(), base.Clone()
	if err := GMerge(got, din, fast); err != nil {
		t.Fatal(err)
	}
	if err := GMerge(want, din, slow); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("GMerge: plus-times row kernel differs from generic")
	}
}

// TestPanelKernelAllocs pins the inner loops every SpMM/SpMV/SDDMM entry
// point runs per panel to zero heap allocations per call: a kernel that
// allocated per nonzero or per row would multiply its cost by the input
// size on every fanned-out panel.
func TestPanelKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, nnz, k := 256, 4000, 8
	m := randSortedBig(rng, n, nnz)
	csr := sparse.ToCSR(m)
	din := NewRandom(rng, n, k)
	dout := NewMatrix(n, k)
	x := make([]float64, n)
	y := make([]float64, n)
	out := make([]float64, nnz)
	sr := semiring.MinPlus()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"spmmRange", func() { spmmRange(m, din, dout, 0, nnz) }},
		{"gspmmRange", func() { gspmmRange(m, din, dout, sr, 0, nnz) }},
		{"spmvRange", func() { spmvRange(m, x, y, 0, nnz) }},
		{"spmmCSRRows", func() { spmmCSRRows(csr, din, dout, 0, n) }},
		{"sddmmRange", func() { sddmmRange(m, din, din, out, 0, nnz) }},
	} {
		if got := testing.AllocsPerRun(20, tc.fn); got != 0 {
			t.Errorf("%s allocated %v times per call, want 0", tc.name, got)
		}
	}
}
