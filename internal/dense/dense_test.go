package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

func identity(n int) *sparse.COO {
	m := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		m.Append(int32(i), int32(i), 1)
	}
	return m
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Set(1, 1, 5)
	if m.At(1, 1) != 5 || m.At(0, 0) != 0 {
		t.Fatal("Set/At broken")
	}
	if len(m.Row(1)) != 2 || m.Row(1)[1] != 5 {
		t.Fatal("Row broken")
	}
	f := NewFilled(2, 2, 7)
	for _, v := range f.Data {
		if v != 7 {
			t.Fatal("NewFilled broken")
		}
	}
}

func TestSpMMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	din := NewRandom(rng, 8, 4)
	dout := NewMatrix(8, 4)
	if err := SpMM(identity(8), din, dout); err != nil {
		t.Fatal(err)
	}
	if !dout.Equal(din) {
		t.Fatal("I * Din != Din")
	}
}

func TestSpMMAccumulates(t *testing.T) {
	din := NewFilled(2, 1, 1)
	dout := NewFilled(2, 1, 10)
	if err := SpMM(identity(2), din, dout); err != nil {
		t.Fatal(err)
	}
	if dout.At(0, 0) != 11 || dout.At(1, 0) != 11 {
		t.Fatalf("accumulation broken: %v", dout.Data)
	}
}

func TestSpMMKnownValues(t *testing.T) {
	// A = [[0,2],[3,0]], Din = [[1,10],[2,20]]
	a := sparse.NewCOO(2, 2)
	a.Append(0, 1, 2)
	a.Append(1, 0, 3)
	din := &Matrix{N: 2, K: 2, Data: []float64{1, 10, 2, 20}}
	dout := NewMatrix(2, 2)
	if err := SpMM(a, din, dout); err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 40, 3, 30}
	for i, w := range want {
		if dout.Data[i] != w {
			t.Fatalf("dout = %v, want %v", dout.Data, want)
		}
	}
}

func TestSpMMShapeErrors(t *testing.T) {
	a := identity(3)
	if err := SpMM(a, NewMatrix(2, 2), NewMatrix(3, 2)); err == nil {
		t.Fatal("expected Din shape error")
	}
	if err := SpMM(a, NewMatrix(3, 2), NewMatrix(3, 3)); err == nil {
		t.Fatal("expected K mismatch error")
	}
	if err := SpMMCSR(sparse.ToCSR(a), NewMatrix(2, 2), NewMatrix(3, 2)); err == nil {
		t.Fatal("expected CSR shape error")
	}
	if err := GSpMM(a, NewMatrix(2, 2), NewMatrix(3, 2), semiring.PlusTimes()); err == nil {
		t.Fatal("expected gSpMM shape error")
	}
}

func TestSpMMCSRMatchesCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSparse(rng, 40, 200)
	din := NewRandom(rng, 40, 8)
	d1 := NewMatrix(40, 8)
	d2 := NewMatrix(40, 8)
	if err := SpMM(a, din, d1); err != nil {
		t.Fatal(err)
	}
	if err := SpMMCSR(sparse.ToCSR(a), din, d2); err != nil {
		t.Fatal(err)
	}
	if !d1.AlmostEqual(d2, 1e-12) {
		t.Fatal("CSR and COO kernels disagree")
	}
}

func TestGSpMMPlusTimesMatchesSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomSparse(rng, 30, 120)
	din := NewRandom(rng, 30, 4)
	d1 := NewMatrix(30, 4)
	d2 := NewMatrix(30, 4)
	if err := SpMM(a, din, d1); err != nil {
		t.Fatal(err)
	}
	if err := GSpMM(a, din, d2, semiring.PlusTimes()); err != nil {
		t.Fatal(err)
	}
	if !d1.AlmostEqual(d2, 1e-12) {
		t.Fatal("gSpMM(plus-times) differs from SpMM")
	}
}

func TestGSpMMMinPlus(t *testing.T) {
	// Min-plus over an adjacency matrix relaxes shortest paths by one hop.
	a := sparse.NewCOO(3, 3)
	a.Append(0, 1, 1) // edge 0->1 weight 1
	a.Append(1, 2, 2) // edge 1->2 weight 2
	a.SortRowMajor()
	s := semiring.MinPlus()
	// Din column = distances from vertex 2: [inf, inf, 0]
	din := NewFilled(3, 1, math.Inf(1))
	din.Set(2, 0, 0)
	dout := NewFilled(3, 1, math.Inf(1))
	if err := GSpMM(a, din, dout, s); err != nil {
		t.Fatal(err)
	}
	if dout.At(1, 0) != 2 {
		t.Fatalf("dist(1) = %g, want 2", dout.At(1, 0))
	}
	if !math.IsInf(dout.At(0, 0), 1) {
		t.Fatalf("dist(0) = %g, want +Inf after one relaxation", dout.At(0, 0))
	}
}

func TestMerge(t *testing.T) {
	a := NewFilled(2, 2, 1)
	b := NewFilled(2, 2, 2)
	if err := Merge(a, b); err != nil {
		t.Fatal(err)
	}
	for _, v := range a.Data {
		if v != 3 {
			t.Fatalf("merge: %v", a.Data)
		}
	}
	if err := Merge(a, NewMatrix(3, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewRandom(rng, 4, 4)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Data[0] += 1
	if m.Equal(c) {
		t.Fatal("clone aliases")
	}
	if m.Equal(NewMatrix(4, 3)) {
		t.Fatal("shape-mismatched Equal returned true")
	}
	if _, err := m.MaxAbsDiff(NewMatrix(4, 3)); err == nil {
		t.Fatal("expected MaxAbsDiff shape error")
	}
	d, err := m.MaxAbsDiff(c)
	if err != nil || d != 1 {
		t.Fatalf("MaxAbsDiff = %g, %v", d, err)
	}
}

// Property: SpMM is linear in Din — A(x+y) = Ax + Ay.
func TestSpMMLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		k := 1 + rng.Intn(6)
		a := randomSparse(rng, n, rng.Intn(4*n))
		x := NewRandom(rng, n, k)
		y := NewRandom(rng, n, k)
		sum := x.Clone()
		for i := range sum.Data {
			sum.Data[i] += y.Data[i]
		}
		ax := NewMatrix(n, k)
		ay := NewMatrix(n, k)
		asum := NewMatrix(n, k)
		if SpMM(a, x, ax) != nil || SpMM(a, y, ay) != nil || SpMM(a, sum, asum) != nil {
			return false
		}
		for i := range ax.Data {
			ax.Data[i] += ay.Data[i]
		}
		return ax.AlmostEqual(asum, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomSparse(rng *rand.Rand, n, nnz int) *sparse.COO {
	m := sparse.NewCOO(n, nnz)
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

func TestFillAndAlmostEqualShapes(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Fill(4.5)
	for _, v := range m.Data {
		if v != 4.5 {
			t.Fatalf("Fill broken: %v", m.Data)
		}
	}
	if m.AlmostEqual(NewMatrix(3, 2), 1) {
		t.Fatal("shape-mismatched AlmostEqual returned true")
	}
}
