package workload

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/par"
)

// Allocation budget of one 2-layer functional forward pass over a fixed
// 1024-row plan with one par worker: measured at 108 allocs and 1.146 MB
// per pass (111–112 allocs under -race), plus a small margin. Budgets only
// ever tighten. The bulk of the bytes is the two N×K pool buffers each
// layer's execute allocates (4 × 262 KB); the row kernels allocate nothing.
const (
	gnnForwardAllocsBudget = 120
	gnnForwardBytesBudget  = 1_200_000
)

// TestGNNForwardAllocBudget pins allocs/op (testing.AllocsPerRun) and
// bytes/op (a runtime.MemStats delta) of a functional GNNWithPlan pass.
func TestGNNForwardAllocBudget(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	m := testMatrix(t, 31, 1024, 128, 6000, 4000)
	a := smallArch()
	plan, err := hotcore.PreprocessCtx(context.Background(), m, &a, hotcore.Options{OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	features := dense.NewRandom(rand.New(rand.NewSource(32)), m.N, a.K)
	cfg := GNNConfig{Layers: 2}
	forward := func() {
		if _, err := GNNWithPlan(context.Background(), plan, &a, features, cfg); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(20, forward)

	const runs = 20
	forward()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		forward()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs

	t.Logf("GNN forward: %.0f allocs/op, %.0f B/op", allocs, bytes)
	if allocs > gnnForwardAllocsBudget {
		t.Errorf("GNN forward allocates %.0f times per pass, budget %d", allocs, gnnForwardAllocsBudget)
	}
	if bytes > gnnForwardBytesBudget {
		t.Errorf("GNN forward allocates %.0f B per pass, budget %d", bytes, gnnForwardBytesBudget)
	}
}
