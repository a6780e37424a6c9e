package hotcore

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/mm"
	"repro/internal/par"
	"repro/internal/tile"
)

// Allocation budgets of the plan path on the repository benchmark's first
// serving class (gen "pap" at scale 400: 1,000 rows, 123,753 nonzeros) on
// SPADE-Sextans 4-4 with one par worker. Each budget is the measured value
// plus a small margin; budgets only ever tighten. Measured on go1.24
// linux/amd64: the build at 57 allocs and 6.02 MB per op (58 and 8.00 MB
// under -race, which defeats bytes.Buffer's single-allocation growth, so
// the byte budgets apply only without it), the read at 23 allocs and
// 2.04 MB per op for a 1.98 MB plan. A one-item par fan-out is a plain
// call, which took the build from 61 allocs to 55. The tiler's UniqCols
// without a sort took the build from 6.70 to 6.02 MB; each stable bucket
// scatter (sparse.Scatter) costs its two callbacks and its per-row
// cursors, which took the build from 55 to 57 allocs and the read from 20
// to 23.
const (
	// mm.Parse → PreprocessCtx → WritePlan into a fresh bytes.Buffer.
	planBuildAllocsBudget = 60
	planBuildBytesBudget  = 6_220_000
	// ReadPlan from a bytes.Reader over the encoded plan.
	planReadAllocsBudget = 24
	planReadBytesBudget  = 2_100_000
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

// heldBytes is the memory a plan's arrays hold: the grid, the assignment
// and the rebuilt sections (hot blocks count only their headers, since
// their nonzeros are views of the grid).
func heldBytes(p *Prep) int {
	g := p.Grid
	n := cap(g.Tiles)*int(reflect.TypeOf(tile.Tile{}).Size()) + 8*cap(g.PanelStart) +
		4*cap(g.Rows) + 4*cap(g.Cols) + 8*cap(g.Vals) + cap(p.Partition.Hot)
	if c := p.Cold; c != nil {
		n += 4*cap(c.Rows) + 4*cap(c.Cols) + 8*cap(c.Vals)
	}
	if c := p.ColdCSR; c != nil {
		n += 8*cap(c.RowPtr) + 4*cap(c.Cols) + 8*cap(c.Vals)
	}
	n += cap(p.Hot.Blocks)*int(reflect.TypeOf(TileBlock{}).Size()) + 24*cap(p.Hot.RowPtr)
	for _, ptr := range p.Hot.RowPtr {
		n += 8 * cap(ptr)
	}
	return n
}

// TestPlanPathAllocBudget pins the allocations of building, encoding and
// decoding one bench-scale plan, and checks the wire-format gates: writing
// allocates at most 1.2× the encoded size, and reading about the memory
// the rebuilt plan holds.
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
	held := heldBytes(back)
	t.Logf("nnz %d, plan %d B, rebuilt plan holds %d B", p.Grid.NNZ(), len(plan), held)
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
