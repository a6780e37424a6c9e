package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/partition"
)

// Fig12Result compares HotTiles against its four individual heuristics
// across the Table IV system scales, with the homogeneous bandwidth
// utilization per scale.
type Fig12Result struct {
	Rows []Fig12Row
}

// Fig12Row is one system scale's averages.
type Fig12Row struct {
	Scale int
	// SpeedupVsBestHom maps HotTiles and each forced heuristic to its
	// geometric-mean speedup over BestHomogeneous across the suite.
	SpeedupVsBestHom map[partition.Strategy]float64
	// AvgHomBandwidthGBs is the system bandwidth utilization averaged
	// across both homogeneous executions and the suite (the paper's
	// per-scale annotation).
	AvgHomBandwidthGBs float64
}

// Fig12 reproduces the heuristic study of Figure 12: HotTiles and each
// forced heuristic against BestHomogeneous at every system scale.
func (e *Env) Fig12() (*Fig12Result, error) {
	scales := []int{1, 2, 4, 8}
	strategies := []partition.Strategy{partition.HotOnly, partition.ColdOnly, partition.HotTiles}
	for _, h := range heuristics {
		strategies = append(strategies, partition.Forced(h))
	}
	g, err := e.strategyGrid(spadeScales(scales...), gen.Benchmarks(), strategies, 2)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{}
	for ai, scale := range scales {
		ratios := map[partition.Strategy][]float64{}
		var bw []float64
		for bi := range g.suite {
			ho, co := g.at(ai, bi, 0), g.at(ai, bi, 1)
			best := min(ho.Time, co.Time)
			bw = append(bw, (ho.Sim.BandwidthUtil()+co.Sim.BandwidthUtil())/2)
			for si, s := range strategies[2:] {
				ratios[s] = append(ratios[s], best/g.at(ai, bi, 2+si).Time)
			}
		}
		row := Fig12Row{Scale: scale, SpeedupVsBestHom: map[partition.Strategy]float64{}}
		for s, rs := range ratios {
			row.SpeedupVsBestHom[s] = geomean(rs)
		}
		row.AvgHomBandwidthGBs = mean(bw) / 1e9
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the Figure 12 series.
func (f *Fig12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "SPADE-Sextans — average speedup vs BestHomogeneous per system scale")
	fmt.Fprintf(w, "%-6s%18s", "scale", partition.HotTiles)
	for _, h := range heuristics {
		fmt.Fprintf(w, "%18s", h)
	}
	fmt.Fprintf(w, "%14s\n", "hom BW (GB/s)")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-6d%18.2f", r.Scale, r.SpeedupVsBestHom[partition.HotTiles])
		for _, h := range heuristics {
			fmt.Fprintf(w, "%18.2f", r.SpeedupVsBestHom[partition.Forced(h)])
		}
		fmt.Fprintf(w, "%14.1f\n", r.AvgHomBandwidthGBs)
	}
}

// Fig16Result is the iso-scale exploration: per architecture, the predicted
// and actual average speedup over the baseline 4-4.
type Fig16Result struct {
	Names     []string // "0-8" … "8-0"
	Predicted []float64
	Actual    []float64
	// PredictedBest/ActualBest are the winning architecture names.
	PredictedBest, ActualBest string
}

// isoTotal is the system-scale budget of the §VIII-B iso-scale
// architectures c-h, c+h = isoTotal; isoBase indexes the 4-4 baseline.
const (
	isoTotal = 8
	isoBase  = isoTotal / 2
)

// isoName is the c-h name of iso-scale architecture c.
func isoName(c int) string { return fmt.Sprintf("%d-%d", c, isoTotal-c) }

// isoScale runs HotTiles on every iso-scale SPADE-Sextans architecture
// over the suite. Grid architecture c is c-(isoTotal-c); isoBase is
// SpadeSextans(4), the baseline Figure 16 and Table IX compare against.
func (e *Env) isoScale() (*strategyGrid, error) {
	archs := make([]arch.Arch, isoTotal+1)
	for c := range archs {
		archs[c] = arch.SpadeSextansSkewed(c, isoTotal-c)
	}
	return e.strategyGrid(archs, gen.Benchmarks(), []partition.Strategy{partition.HotTiles}, 2)
}

// Fig16 reproduces the fixed-architecture exploration scenario of §VIII-B:
// for each iso-scale SPADE-Sextans architecture, the average (over the
// suite) speedup over 4-4, both as HotTiles predicts it and as simulated.
func (e *Env) Fig16() (*Fig16Result, error) {
	g, err := e.isoScale()
	if err != nil {
		return nil, err
	}
	out := &Fig16Result{}
	bestP, bestA := 0, 0
	for c := range g.archs {
		var pred, act []float64
		for bi := range g.suite {
			base, r := g.at(isoBase, bi, 0), g.at(c, bi, 0)
			pred = append(pred, base.Predicted/r.Predicted)
			act = append(act, base.Time/r.Time)
		}
		out.Names = append(out.Names, isoName(c))
		out.Predicted = append(out.Predicted, geomean(pred))
		out.Actual = append(out.Actual, geomean(act))
		if out.Predicted[c] > out.Predicted[bestP] {
			bestP = c
		}
		if out.Actual[c] > out.Actual[bestA] {
			bestA = c
		}
	}
	out.PredictedBest = out.Names[bestP]
	out.ActualBest = out.Names[bestA]
	return out, nil
}

// Render prints the Figure 16 series.
func (f *Fig16Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Iso-scale architectures — average speedup over 4-4 (predicted vs actual)")
	fmt.Fprintf(w, "%-8s%12s%12s\n", "arch", "predicted", "actual")
	for i, n := range f.Names {
		fmt.Fprintf(w, "%-8s%12.2f%12.2f\n", n, f.Predicted[i], f.Actual[i])
	}
	fmt.Fprintf(w, "predicted best: %s; actual best: %s\n", f.PredictedBest, f.ActualBest)
}
