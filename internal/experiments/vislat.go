package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sim"
)

// VisLatRow is one perturbation's outcome.
type VisLatRow struct {
	// Factor multiplies both worker types' calibrated vis_lat.
	Factor float64
	// AvgRuntimeVsBaseline is the geomean ratio of HotTiles' *simulated*
	// runtime with the perturbed model to the runtime with the calibrated
	// model (1.0 = the perturbation did not change the partitioning
	// quality at all; the simulator itself is never perturbed).
	AvgRuntimeVsBaseline float64
	// AvgHotFracDelta is the mean absolute change of the hot-nonzero
	// fraction versus baseline.
	AvgHotFracDelta float64
}

// VisLatSensitivity is the DESIGN.md §8 ablation: how robust is the
// HotTiles partitioning to a miscalibrated vis_lat? Each row perturbs both
// workers' vis_lat by a factor, repartitions, and re-simulates with the
// *unperturbed* simulator.
type VisLatSensitivity struct {
	Rows []VisLatRow
}

// VisLat runs the sensitivity study on SPADE-Sextans (scale 4).
func (e *Env) VisLat() (*VisLatSensitivity, error) {
	base := arch.SpadeSextans(4)
	base.TileH, base.TileW = e.TileSize(), e.TileSize()
	out := &VisLatSensitivity{}

	// The calibrated baseline: HotTiles' cells of the strategy grid.
	bg, err := e.strategyGrid([]arch.Arch{base}, gen.Benchmarks(), []partition.Strategy{partition.HotTiles}, 2)
	if err != nil {
		return nil, err
	}
	suite := bg.suite

	// All (factor, benchmark) perturbation cells run concurrently; each job
	// perturbs its own copy of the architecture (workers are held by value).
	factors := []float64{0.25, 0.5, 1, 2, 4}
	type visLatCell struct{ ratio, delta float64 }
	cells := make([]visLatCell, len(factors)*len(suite))
	if err := par.ForEachErr(len(cells), func(i int) error {
		factor, bi := factors[i/len(suite)], i%len(suite)
		b := suite[bi]
		a := base
		a.Hot.VisLatPerByte *= factor
		a.Cold.VisLatPerByte *= factor
		g, err := e.Grid(b, a.TileH)
		if err != nil {
			return err
		}
		cfg := a.Config(2)
		es, err := partition.NewEstimates(g, &cfg)
		if err != nil {
			return err
		}
		res, err := partition.Run(es, cfg, partition.HotTiles, 0)
		if err != nil {
			return err
		}
		// Simulate with the *calibrated* architecture: the perturbation
		// only affected the planning model.
		r, err := sim.Run(g, res.Hot, &base, nil, sim.Options{Serial: res.Serial, SkipFunctional: true})
		if err != nil {
			return err
		}
		bl := bg.at(0, bi, 0)
		_, frac := res.HotNNZ(g)
		_, blFrac := bl.Part.HotNNZ(g)
		cells[i] = visLatCell{ratio: r.Time / bl.Time, delta: math.Abs(frac - blFrac)}
		return nil
	}); err != nil {
		return nil, err
	}
	for fi, factor := range factors {
		row := VisLatRow{Factor: factor}
		var ratios, deltas []float64
		for bi := range suite {
			c := cells[fi*len(suite)+bi]
			ratios = append(ratios, c.ratio)
			deltas = append(deltas, c.delta)
		}
		row.AvgRuntimeVsBaseline = geomean(ratios)
		row.AvgHotFracDelta = mean(deltas)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the sensitivity series.
func (v *VisLatSensitivity) Render(w io.Writer) {
	fmt.Fprintln(w, "vis_lat sensitivity — HotTiles simulated runtime with a perturbed model")
	fmt.Fprintf(w, "%10s%22s%20s\n", "factor", "runtime vs calibrated", "hot-frac |delta|")
	for _, r := range v.Rows {
		fmt.Fprintf(w, "%10.2f%22.3f%19.1f%%\n", r.Factor, r.AvgRuntimeVsBaseline, r.AvgHotFracDelta*100)
	}
}
