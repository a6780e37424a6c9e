package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/partition"
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

// VisLat runs the sensitivity study on SPADE-Sextans (scale 4): HotTiles
// planned with each perturbed model and simulated on the calibrated one,
// one cell per (factor, benchmark). The ×1 row is the calibrated
// baseline, Fig 10's HotTiles cells.
func (e *Env) VisLat() (*VisLatSensitivity, error) {
	base := arch.SpadeSextans(4)
	factors := []float64{0.25, 0.5, 1, 2, 4}
	rows := make([]cell, len(factors))
	for i, f := range factors {
		plan := base
		plan.Hot.VisLatPerByte *= f
		plan.Cold.VisLatPerByte *= f
		if f != 1 { // ×1 stays the calibrated arch itself, so its cells are Fig 10's
			plan.Name = fmt.Sprintf("%s vis_lat×%g", base.Name, f)
		}
		rows[i] = cell{arch: base, plan: &plan}
	}
	g, err := e.grid(rows, gen.Benchmarks(), partition.HotTiles)
	if err != nil {
		return nil, err
	}
	calibrated := slices.Index(factors, 1)
	out := &VisLatSensitivity{}
	for fi, factor := range factors {
		var ratios, deltas []float64
		for bi := range g.suite {
			r, bl := g.at(fi, bi, 0), g.at(calibrated, bi, 0)
			ratios = append(ratios, r.Time/bl.Time)
			deltas = append(deltas, math.Abs(r.HotFrac-bl.HotFrac))
		}
		out.Rows = append(out.Rows, VisLatRow{Factor: factor,
			AvgRuntimeVsBaseline: geomean(ratios), AvgHotFracDelta: mean(deltas)})
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
