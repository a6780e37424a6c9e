package reorder

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/sparse"
)

func TestPermutationValidateAndInverse(t *testing.T) {
	p := Permutation{2, 0, 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	inv := p.Inverse()
	for i := range p {
		if inv[p[i]] != int32(i) {
			t.Fatalf("inverse broken at %d", i)
		}
	}
	if (Permutation{0, 0, 1}).Validate() == nil {
		t.Fatal("expected duplicate error")
	}
	if (Permutation{0, 5}).Validate() == nil {
		t.Fatal("expected range error")
	}
}

func TestApply(t *testing.T) {
	m := sparse.NewCOO(3, 2)
	m.Append(0, 1, 5)
	m.Append(2, 2, 7)
	p := Permutation{2, 0, 1} // 0→2, 1→0, 2→1
	out, err := Apply(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1,5) → (2,0,5); (2,2,7) → (1,1,7).
	r, c, v := out.At(0)
	if r != 1 || c != 1 || v != 7 {
		t.Fatalf("first = (%d,%d,%g)", r, c, v)
	}
	r, c, v = out.At(1)
	if r != 2 || c != 0 || v != 5 {
		t.Fatalf("second = (%d,%d,%g)", r, c, v)
	}
	if _, err := Apply(m, Permutation{0}); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Apply(m, Permutation{0, 0, 1}); err == nil {
		t.Fatal("expected validity error")
	}
}

func TestDegreeSortConcentratesHubs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := gen.PowerLaw(rng, 2048, 10, 2.0)
	p := DegreeSort(m)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := Apply(m, p)
	if err != nil {
		t.Fatal(err)
	}
	// The first 5% of rows must hold far more than 5% of nonzeros.
	cut := out.N / 20
	head := 0
	for _, r := range out.Rows {
		if int(r) < cut {
			head++
		}
	}
	if float64(head) < 0.25*float64(out.NNZ()) {
		t.Fatalf("hub concentration weak: first 5%% of rows hold %.1f%% of nonzeros",
			100*float64(head)/float64(out.NNZ()))
	}
}

func TestBFSClusterShrinksBandwidthOfShuffledMesh(t *testing.T) {
	mesh := gen.Mesh2D(32, 32)
	shuffled, err := Apply(mesh, Random(mesh.N, 7))
	if err != nil {
		t.Fatal(err)
	}
	p := BFSCluster(shuffled)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	clustered, err := Apply(shuffled, p)
	if err != nil {
		t.Fatal(err)
	}
	if bw, after := Bandwidth(shuffled), Bandwidth(clustered); after >= bw {
		t.Fatalf("BFS did not reduce bandwidth: %d -> %d", bw, after)
	}
}

func TestBFSClusterCoversDisconnectedComponents(t *testing.T) {
	// Two disjoint triangles plus an isolated vertex.
	m := sparse.NewCOO(7, 0)
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}}
	for _, e := range edges {
		m.Append(e[0], e[1], 1)
		m.Append(e[1], e[0], 1)
	}
	m.SortRowMajor()
	p := BFSCluster(m)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPermutationDeterministic(t *testing.T) {
	a, b := Random(100, 5), Random(100, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Random(100, 6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

// Property: reordering preserves SpMM semantics — P·A·Pᵀ · (P·x) = P·(A·x).
func TestReorderingPreservesSpMVProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		m := gen.Uniform(rng, n, 3*n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		if dense.SpMV(m, x, y) != nil {
			return false
		}
		p := DegreeSort(m)
		pm, err := Apply(m, p)
		if err != nil {
			return false
		}
		px := make([]float64, n)
		for i := range x {
			px[p[i]] = x[i]
		}
		py := make([]float64, n)
		if dense.SpMV(pm, px, py) != nil {
			return false
		}
		for i := range y {
			if d := py[p[i]] - y[i]; d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidth(t *testing.T) {
	m := sparse.NewCOO(10, 2)
	m.Append(0, 9, 1)
	m.Append(3, 3, 1)
	if bw := Bandwidth(m); bw != 9 {
		t.Fatalf("bandwidth = %d, want 9", bw)
	}
	if bw := Bandwidth(sparse.NewCOO(5, 0)); bw != 0 {
		t.Fatalf("empty bandwidth = %d", bw)
	}
}

// TestBFSClusterAllocBudget pins BFSCluster's allocations on the pap
// matrix at scale 400 (N = 1,000, 123,753 nonzeros): the adjacency is one
// offsets array and one neighbor array, not a slice per vertex, so the
// count does not grow with N. Measured on go1.24 linux/amd64: 8 allocs per
// call (1,007 with a slice per vertex).
func TestBFSClusterAllocBudget(t *testing.T) {
	const budget = 10
	bm, ok := gen.ByShort("pap")
	if !ok {
		t.Fatal("no pap generator")
	}
	m := bm.Build(1, 400)
	allocs := testing.AllocsPerRun(5, func() { BFSCluster(m) })
	t.Logf("BFSCluster on N=%d, %d nonzeros: %.0f allocs/op", m.N, m.NNZ(), allocs)
	if allocs > budget {
		t.Errorf("BFSCluster makes %.0f allocations, budget %d", allocs, budget)
	}
}
