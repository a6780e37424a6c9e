package hotcore

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/mm"
	"repro/internal/par"
)

// Allocation budgets of the plan path on the repository benchmark's first
// serving class (gen "pap" at scale 400: 1,000 rows, 123,753 nonzeros) on
// SPADE-Sextans 4-4 with one par worker. Each budget is the measured value
// plus a small margin; budgets only ever tighten. Measured on go1.24
// linux/amd64: the build at 45 allocs and 6.00 MB per op (46 and 7.98 MB
// under -race, which defeats bytes.Buffer's single-allocation growth, so
// the byte budgets apply only without it), the read at 11 allocs and
// 2.02 MB per op for a 1.98 MB plan. A plan builds and decodes no
// sections (Formats does, on request), which took the build from 57
// allocs and 6.02 MB to 45 and 6.00 MB (this class is all hot, so its
// cold section was empty), and the read from 23 allocs and 2.04 MB to 11
// and 2.02 MB.
const (
	// mm.Parse → PreprocessCtx → WritePlan into a fresh bytes.Buffer.
	planBuildAllocsBudget = 48
	planBuildBytesBudget  = 6_200_000
	// ReadPlan from a bytes.Reader over the encoded plan.
	planReadAllocsBudget = 12
	planReadBytesBudget  = 2_085_000
)

// measureAllocs returns allocs/op (testing.AllocsPerRun) and bytes/op (a
// runtime.MemStats delta) of fn.
func measureAllocs(fn func()) (allocs, bytes float64) {
	const runs = 5
	allocs = testing.AllocsPerRun(runs, fn)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestPlanPathAllocBudget pins the allocations of building, encoding and
// decoding one bench-scale plan, and checks the wire-format gates: writing
// allocates at most 1.2× the encoded size, and reading about the memory
// the decoded plan holds.
func TestPlanPathAllocBudget(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	b, _ := gen.ByShort("pap")
	var body bytes.Buffer
	if err := mm.Write(&body, b.Build(1, 400)); err != nil {
		t.Fatal(err)
	}
	a := arch.SpadeSextans(4)
	opts := Options{Strategy: StrategyHotTiles, OpsPerMAC: 2, Seed: 1}
	var p *Prep
	var plan []byte
	build := func() {
		m, err := mm.Parse(body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if p, err = PreprocessCtx(context.Background(), m, &a, opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, p); err != nil {
			t.Fatal(err)
		}
		plan = buf.Bytes()
	}
	read := func() {
		if _, err := ReadPlan(bytes.NewReader(plan)); err != nil {
			t.Fatal(err)
		}
	}
	write := func() {
		var buf bytes.Buffer
		if err := WritePlan(&buf, p); err != nil {
			t.Fatal(err)
		}
	}

	buildAllocs, buildBytes := measureAllocs(build)
	readAllocs, readBytes := measureAllocs(read)
	_, writeBytes := measureAllocs(write)
	back, err := ReadPlan(bytes.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	held := back.HeldBytes()
	t.Logf("nnz %d, plan %d B, decoded plan holds %d B", p.Grid.NNZ(), len(plan), held)
	t.Logf("build: %.0f allocs/op, %.0f B/op", buildAllocs, buildBytes)
	t.Logf("read:  %.0f allocs/op, %.0f B/op", readAllocs, readBytes)
	t.Logf("write: %.0f B/op", writeBytes)

	if buildAllocs > planBuildAllocsBudget {
		t.Errorf("plan build allocates %.0f times, budget %d", buildAllocs, planBuildAllocsBudget)
	}
	if readAllocs > planReadAllocsBudget {
		t.Errorf("ReadPlan allocates %.0f times, budget %d", readAllocs, planReadAllocsBudget)
	}
	if readBytes > planReadBytesBudget {
		t.Errorf("ReadPlan allocates %.0f B, budget %d", readBytes, planReadBytesBudget)
	}
	if !raceEnabled {
		if buildBytes > planBuildBytesBudget {
			t.Errorf("plan build allocates %.0f B, budget %d", buildBytes, planBuildBytesBudget)
		}
		if limit := 1.2 * float64(len(plan)); writeBytes > limit {
			t.Errorf("WritePlan allocates %.0f B for a %d B plan, gate 1.2× = %.0f", writeBytes, len(plan), limit)
		}
	}
	if limit := 1.1 * float64(held); readBytes > limit {
		t.Errorf("ReadPlan allocates %.0f B for a plan holding %d B, gate 1.1× = %.0f", readBytes, held, limit)
	}
}
