package calib

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

func profilingMatrices(seed int64) []*sparse.COO {
	// Large enough that Din does not fit in the cold workers' aggregate L1
	// (otherwise cache reuse, which the model ignores, dominates and no
	// single vis_lat fits well).
	rng := rand.New(rand.NewSource(seed))
	return []*sparse.COO{
		gen.Uniform(rng, 4096, 40000),
		gen.PowerLaw(rng, 4096, 10, 2.1),
		gen.BlockCommunity(rng, 4096, 64, 0.5, 5),
	}
}

func smallArch() arch.Arch {
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = 64, 64
	return a
}

// meanRelError measures |predicted − simulated| / simulated for the given
// homogeneous side across the matrices, with the architecture as-is.
func meanRelError(t *testing.T, a *arch.Arch, mats []*sparse.COO, hotSide bool) float64 {
	t.Helper()
	sum := 0.0
	for _, m := range mats {
		g, err := tile.Partition(m, a.TileH, a.TileW)
		if err != nil {
			t.Fatal(err)
		}
		assign := partition.AllCold(g)
		if hotSide {
			assign = partition.AllHot(g)
		}
		r, err := sim.Run(g, assign, a, nil, sim.Options{SkipFunctional: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := a.Config(2)
		es, err := partition.NewEstimates(g, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		pred, _, err := partition.Predict(es, &cfg, assign, false)
		if err != nil {
			t.Fatal(err)
		}
		sum += math.Abs(pred-r.Time) / r.Time
	}
	return sum / float64(len(mats))
}

func TestCalibrateReducesModelError(t *testing.T) {
	a := smallArch()
	// Start from deliberately wrong vis_lat values.
	a.Cold.VisLatPerByte *= 15
	a.Hot.VisLatPerByte /= 15
	mats := profilingMatrices(1)
	beforeCold := meanRelError(t, &a, mats, false)
	beforeHot := meanRelError(t, &a, mats, true)

	reports, err := Calibrate(&a, mats)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Runs != 3 {
			t.Errorf("%s: %d runs, want 3", r.Worker, r.Runs)
		}
		if r.VisLat <= 0 {
			t.Errorf("%s: non-positive vis_lat", r.Worker)
		}
	}
	// Calibration must not be worse than the perturbed starting point. The
	// residual error is real: the model deliberately ignores caches (§IV-C),
	// so cache-heavy matrices keep ColdOnly error high — the paper's own
	// Figure 17 shows the same structure.
	if after := reports[0].RelError; after > beforeCold+1e-9 {
		t.Errorf("cold error grew: %.3f -> %.3f", beforeCold, after)
	}
	if after := reports[1].RelError; after > beforeHot+1e-9 {
		t.Errorf("hot error grew: %.3f -> %.3f", beforeHot, after)
	}
	// The hot side has no cache in the simulator, so its fit should be
	// tight.
	if reports[1].RelError > 0.25 {
		t.Errorf("hot rel error %.2f too high after calibration", reports[1].RelError)
	}
	// The fitted values are installed into the architecture.
	if a.Cold.VisLatPerByte != reports[0].VisLat || a.Hot.VisLatPerByte != reports[1].VisLat {
		t.Error("fitted vis_lat not written back")
	}
}

func TestCalibrateRecoversKnownOrderForHotSide(t *testing.T) {
	// The hot streamer has no simulated cache, so the fitted hot vis_lat
	// should land near its actual streaming rate (within an order of
	// magnitude).
	a := smallArch()
	simHotRate := a.Hot.MaxStreamBW / float64(a.Hot.Count)
	reports, err := Calibrate(&a, profilingMatrices(2))
	if err != nil {
		t.Fatal(err)
	}
	got := reports[1].VisLat
	ideal := 1 / simHotRate
	if got > ideal*10 || got < ideal/10 {
		t.Fatalf("hot vis_lat %.3g far from simulator rate %.3g", got, ideal)
	}
}

func TestCalibrateErrors(t *testing.T) {
	a := smallArch()
	if _, err := Calibrate(&a, nil); err == nil {
		t.Fatal("expected no-matrices error")
	}
	bad := sparse.NewCOO(4, 1)
	bad.Append(0, 0, 1)
	badArch := smallArch()
	badArch.TileH = 0
	if _, err := Calibrate(&badArch, []*sparse.COO{bad}); err == nil {
		t.Fatal("expected tiling error")
	}
}

func TestCalibrateSingleSidedArch(t *testing.T) {
	a := arch.SpadeSextansSkewed(4, 0)
	a.TileH, a.TileW = 64, 64
	reports, err := Calibrate(&a, profilingMatrices(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Worker != "SPADE PE" {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestSearchLogFindsMinimum(t *testing.T) {
	target := 3e-10
	f := func(x float64) float64 {
		d := math.Log(x) - math.Log(target)
		return d * d
	}
	got := searchLog(f, 1e-13, 1e-8)
	if got > target*1.2 || got < target/1.2 {
		t.Fatalf("searchLog = %.3g, want ≈ %.3g", got, target)
	}
}
