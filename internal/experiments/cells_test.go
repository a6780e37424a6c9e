package experiments

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/partition"
)

// engineRuns counts the simulator engine runs fn performs.
func engineRuns(t *testing.T, fn func() error) int64 {
	t.Helper()
	before := obs.Snapshot()["sim.engine.runs"]
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return obs.Snapshot()["sim.engine.runs"] - before
}

// TestStudiesShareCells checks that the cells Kernels, VisLat and Reorder
// have in common with Fig 10 — Kernels' SpMM column, VisLat's ×1 row and
// Reorder's original column, each Fig 10's HotTiles column — are cache
// hits on an Env that ran Fig 10: each study then costs exactly the engine
// runs it costs on a fresh Env less those of the shared column, none when
// run again, and the shared columns read Fig 10's times bit for bit.
func TestStudiesShareCells(t *testing.T) {
	column := engineRuns(t, func() error {
		_, err := testEnv().runStudy(arch.SpadeSextans(4), gen.Benchmarks(), []partition.Strategy{partition.HotTiles})
		return err
	})
	if column == 0 {
		t.Fatal("the HotTiles column ran no engine")
	}
	e := testEnv()
	fig10, err := e.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var kernels *KernelsStudy
	var vislat *VisLatSensitivity
	var reorder *ReorderAblation
	for _, st := range []struct {
		name string
		run  func(e *Env) error
	}{
		{"kernels", func(e *Env) (err error) { kernels, err = e.Kernels(); return err }},
		{"vislat", func(e *Env) (err error) { vislat, err = e.VisLat(); return err }},
		{"reorder", func(e *Env) (err error) { reorder, err = e.Reorder(); return err }},
	} {
		fresh := engineRuns(t, func() error { return st.run(testEnv()) })
		shared := engineRuns(t, func() error { return st.run(e) })
		if shared != fresh-column {
			t.Errorf("%s after Fig 10: %d engine runs, want %d (%d on a fresh Env less Fig 10's %d)",
				st.name, shared, fresh-column, fresh, column)
		}
		// Every cell is cached, so the saving above is the shared column.
		if again := engineRuns(t, func() error { return st.run(e) }); again != 0 {
			t.Errorf("%s run again: %d engine runs, want 0", st.name, again)
		}
	}
	for i, row := range fig10.Rows {
		ht := row.Times[partition.HotTiles]
		if k := kernels.Rows[i]; k.SpMM != ht {
			t.Errorf("%s: Kernels' SpMM %v, Fig 10's HotTiles %v", row.Short, k.SpMM, ht)
		}
		if r := reorder.Rows[i]; r.Original != ht {
			t.Errorf("%s: Reorder's original %v, Fig 10's HotTiles %v", row.Short, r.Original, ht)
		}
	}
	for _, r := range vislat.Rows {
		if r.Factor == 1 && (r.AvgRuntimeVsBaseline != 1 || r.AvgHotFracDelta != 0) {
			t.Errorf("VisLat ×1 row is not Fig 10's HotTiles column: %+v", r)
		}
	}
}

// TestCellKeysCompareConfigurations runs a preset and a copy with one
// worker parameter changed but the preset's name kept, as two cells on one
// Env. A key that identified an architecture by name would hand the second
// cell the first one's estimates and run; each must instead match what a
// fresh Env computes for it alone.
func TestCellKeysCompareConfigurations(t *testing.T) {
	preset := arch.SpadeSextans(4)
	perturbed := preset
	perturbed.Hot.MaxStreamBW /= 4
	pap, _ := gen.ByShort("pap")
	rows := []cell{
		{arch: preset, strategy: partition.HotTiles},
		{arch: perturbed, strategy: partition.HotTiles},
	}
	e := testEnv()
	g, err := e.grid(rows, []gen.Benchmark{pap})
	if err != nil {
		t.Fatal(err)
	}
	if g.at(0, 0, 0) == g.at(1, 0, 0) {
		t.Fatal("the preset and its perturbed copy share a run")
	}
	var ests [2]*partition.Estimates
	for i, c := range rows {
		c.bench = pap
		k, err := e.key(c)
		if err != nil {
			t.Fatal(err)
		}
		if ests[i], err = e.estimates(k, pap); err != nil {
			t.Fatal(err)
		}
		alone, err := testEnv().exec(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.at(i, 0, 0); got.Time != alone.Time || got.Predicted != alone.Predicted {
			t.Errorf("cell %d on a shared Env: time %v predicted %v; alone: time %v predicted %v",
				i, got.Time, got.Predicted, alone.Time, alone.Predicted)
		}
	}
	if ests[0] == ests[1] {
		t.Error("the preset and its perturbed copy share estimates")
	}
	if g.at(0, 0, 0).Time == g.at(1, 0, 0).Time {
		t.Error("the perturbation does not change the simulated time; the test checks nothing")
	}
}
