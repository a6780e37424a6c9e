package hottiles

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func TestPartitionWithSpMVEndToEnd(t *testing.T) {
	m := demoMatrix(10)
	a := demoArch()
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{
		Strategy: StrategyHotTiles,
		Kernel:   KernelSpMV,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := NewDense(m.N, 1)
	for i := range x.Data {
		x.Data[i] = float64(i%7) + 1
	}
	res, err := Simulate(plan, &a, x, SimOptions{Serial: plan.Partition.Serial, Kernel: KernelSpMV})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceSpMV(m, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := res.Output.At(i, 0) - want[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("row %d: %g vs %g", i, res.Output.At(i, 0), want[i])
		}
	}
}

func TestPartitionWithSDDMMEndToEnd(t *testing.T) {
	m := demoMatrix(11)
	a := demoArch()
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{
		Strategy: StrategyHotTiles,
		Kernel:   KernelSDDMM,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	emb := NewDense(m.N, a.K)
	for i := range emb.Data {
		emb.Data[i] = rng.NormFloat64()
	}
	res, err := Simulate(plan, &a, emb, SimOptions{Serial: plan.Partition.Serial, Kernel: KernelSDDMM})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SDDMM) != m.NNZ() {
		t.Fatalf("SDDMM values %d, want %d", len(res.SDDMM), m.NNZ())
	}
	// Reference on the tile-ordered matrix (sums are order-independent).
	ref, err := ReferenceSDDMM(plan.Grid.ToCOO(), emb, emb)
	if err != nil {
		t.Fatal(err)
	}
	sumSim, sumRef := 0.0, 0.0
	for i := range ref {
		sumSim += res.SDDMM[i]
		sumRef += ref[i]
	}
	if d := sumSim - sumRef; d > 1e-6 || d < -1e-6 {
		t.Fatalf("SDDMM sums differ: %g vs %g", sumSim, sumRef)
	}
}

func TestReorderFacade(t *testing.T) {
	m := demoMatrix(13)
	for name, p := range map[string]Permutation{
		"degree": ReorderDegreeSort(m),
		"bfs":    ReorderBFSCluster(m),
		"random": ReorderRandom(m.N, 3),
	} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out, err := ApplyReorder(m, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.NNZ() != m.NNZ() {
			t.Fatalf("%s: nnz changed", name)
		}
	}
}

func TestAutoTileSizeFacade(t *testing.T) {
	m := demoMatrix(14)
	a := demoArch()
	best, sweep, err := AutoTileSize(m, &a, []int{64, 128, 256}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best == 0 || len(sweep) != 3 {
		t.Fatalf("best=%d sweep=%d", best, len(sweep))
	}
}

func TestBenchmarkBuildViaFacade(t *testing.T) {
	b, ok := BenchmarkByShort("del")
	if !ok {
		t.Fatal("del missing")
	}
	m := b.Build(1, 1024)
	if m.Validate() != nil || m.NNZ() == 0 {
		t.Fatal("benchmark build broken")
	}
	// gen import is exercised through the facade variables too.
	if len(gen.Benchmarks()) != len(Benchmarks()) {
		t.Fatal("facade suite diverges")
	}
}

func TestPlanPersistenceViaFacade(t *testing.T) {
	m := demoMatrix(15)
	a := demoArch()
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded plan simulates identically — the paper's train-once,
	// infer-many workflow.
	din := NewDense(m.N, a.K)
	for i := range din.Data {
		din.Data[i] = 1
	}
	r1, err := Simulate(plan, &a, din, SimOptions{Serial: plan.Partition.Serial})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(back, &a, din, SimOptions{Serial: back.Partition.Serial})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time || !r1.Output.Equal(r2.Output) {
		t.Fatal("reloaded plan behaves differently")
	}
}

func TestSimulateTraceViaFacade(t *testing.T) {
	m := demoMatrix(16)
	a := demoArch()
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(plan, &a, nil, SimOptions{SkipFunctional: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Fatal("no trace")
	}
}
