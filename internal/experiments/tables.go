package experiments

import (
	"fmt"
	"io"

	"repro/internal/gen"
)

// TableVIResult holds the absolute simulated runtimes for SPADE-Sextans
// (scale 4) in milliseconds, the paper's Table VI layout.
type TableVIResult struct {
	Rows []TableVIRow
}

// TableVIRow is one matrix's runtimes in milliseconds.
type TableVIRow struct {
	Short                                          string
	HotOnly, ColdOnly, BestHom, IUnaware, HotTiles float64
}

// TableVI reproduces the absolute-runtime table: the Figure 10 grid's
// times in milliseconds.
func (e *Env) TableVI() (*TableVIResult, error) {
	st, err := e.Fig10()
	if err != nil {
		return nil, err
	}
	out := &TableVIResult{}
	for _, r := range st.Rows {
		ms := func(s string) float64 { return r.Times[s] * 1e3 }
		out.Rows = append(out.Rows, TableVIRow{Short: r.Short,
			HotOnly: ms(StratHotOnly), ColdOnly: ms(StratColdOnly), BestHom: r.BestHom * 1e3,
			IUnaware: ms(StratIUnaware), HotTiles: ms(StratHotTiles)})
	}
	return out, nil
}

// Render prints Table VI.
func (t *TableVIResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Runtime in ms for SPADE-Sextans (scale 4)")
	fmt.Fprintf(w, "%-8s%10s%10s%10s%10s%10s\n",
		"matrix", "HotOnly", "ColdOnly", "BestHom", "IUnaware", "HotTiles")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-8s%10.3f%10.3f%10.3f%10.3f%10.3f\n",
			r.Short, r.HotOnly, r.ColdOnly, r.BestHom, r.IUnaware, r.HotTiles)
	}
}

// TableVIIResult reports the architecture utilization statistics of Table
// VII (geometric means across the suite) for system scales 1 and 4.
type TableVIIResult struct {
	Scales []TableVIIScale
}

// TableVIIScale is one system scale's statistics.
type TableVIIScale struct {
	Scale      int
	Strategies []string
	// BandwidthGBs, LinesPerNNZ, ColdGFLOPs, HotGFLOPs map strategy name to
	// the geomean statistic.
	BandwidthGBs, LinesPerNNZ, ColdGFLOPs, HotGFLOPs map[string]float64
}

// TableVII reproduces the utilization statistics table: the simulator
// statistics of the strategy grid at system scales 1 and 4.
func (e *Env) TableVII() (*TableVIIResult, error) {
	scales := []int{1, 4}
	g, err := e.strategyGrid(spadeScales(scales...), gen.Benchmarks(), paperStrategies, 2)
	if err != nil {
		return nil, err
	}
	out := &TableVIIResult{}
	for ai, scale := range scales {
		sc := TableVIIScale{
			Scale:        scale,
			Strategies:   g.strategies,
			BandwidthGBs: map[string]float64{},
			LinesPerNNZ:  map[string]float64{},
			ColdGFLOPs:   map[string]float64{},
			HotGFLOPs:    map[string]float64{},
		}
		for si, s := range g.strategies {
			var bw, lines, cold, hot []float64
			for bi, b := range g.suite {
				r := g.at(ai, bi, si).Sim
				bw = append(bw, r.BandwidthUtil()/1e9)
				lines = append(lines, r.CacheLinesPerNNZ(e.Matrix(b).NNZ()))
				// Geomeans need positive values; idle pools report 0
				// GFLOP/s in the paper's table, rendered below as 0.
				if c := r.ColdGFLOPs(); c > 0 {
					cold = append(cold, c)
				}
				if h := r.HotGFLOPs(); h > 0 {
					hot = append(hot, h)
				}
			}
			sc.BandwidthGBs[s] = geomean(bw)
			sc.LinesPerNNZ[s] = geomean(lines)
			sc.ColdGFLOPs[s] = geomean(cold)
			sc.HotGFLOPs[s] = geomean(hot)
		}
		out.Scales = append(out.Scales, sc)
	}
	return out, nil
}

// Render prints Table VII.
func (t *TableVIIResult) Render(w io.Writer) {
	for _, sc := range t.Scales {
		fmt.Fprintf(w, "System Scale %d (geometric means)\n", sc.Scale)
		fmt.Fprintf(w, "%-28s", "measure")
		for _, s := range sc.Strategies {
			fmt.Fprintf(w, "%12s", s)
		}
		fmt.Fprintln(w)
		row := func(name string, m map[string]float64) {
			fmt.Fprintf(w, "%-28s", name)
			for _, s := range sc.Strategies {
				fmt.Fprintf(w, "%12.2f", m[s])
			}
			fmt.Fprintln(w)
		}
		row("Bandwidth Util. (GB/s)", sc.BandwidthGBs)
		row("Cache Lines/Nonzero", sc.LinesPerNNZ)
		row("SPADE GFLOP/s", sc.ColdGFLOPs)
		row("Sextans GFLOP/s", sc.HotGFLOPs)
	}
}

// TableIXResult is the reconfigurable-architecture scenario: per matrix,
// the iso-scale architecture HotTiles predicts to be best vs the actually
// best one, and the speedups over 4-4.
type TableIXResult struct {
	Rows []TableIXRow
	// AvgPredSpeedup/AvgOracleSpeedup are the arithmetic means (as in the
	// paper's AVG row); Accuracy is the fraction of correct predictions.
	AvgPredSpeedup, AvgOracleSpeedup float64
	Accuracy                         float64
}

// TableIXRow is one matrix's exploration outcome.
type TableIXRow struct {
	Short                string
	PredBest, ActualBest string
	PredSpeedup          float64 // actual speedup of the predicted-best arch over 4-4
	OracleSpeedup        float64 // actual speedup of the actually-best arch
	Correct              bool
}

// TableIX reproduces the per-matrix architecture-selection table over the
// iso-scale grid Figure 16 averages.
func (e *Env) TableIX() (*TableIXResult, error) {
	g, err := e.isoScale()
	if err != nil {
		return nil, err
	}
	out := &TableIXResult{}
	var predS, oracleS []float64
	correct := 0
	for bi, b := range g.suite {
		base := g.at(isoBase, bi, 0)
		bestPred, bestAct := 0, 0
		for c := range g.archs {
			r := g.at(c, bi, 0)
			if r.Predicted < g.at(bestPred, bi, 0).Predicted {
				bestPred = c
			}
			if r.Time < g.at(bestAct, bi, 0).Time {
				bestAct = c
			}
		}
		row := TableIXRow{
			Short:         b.Short,
			PredBest:      isoName(bestPred),
			ActualBest:    isoName(bestAct),
			PredSpeedup:   base.Time / g.at(bestPred, bi, 0).Time,
			OracleSpeedup: base.Time / g.at(bestAct, bi, 0).Time,
			Correct:       bestPred == bestAct,
		}
		if row.Correct {
			correct++
		}
		out.Rows = append(out.Rows, row)
		predS = append(predS, row.PredSpeedup)
		oracleS = append(oracleS, row.OracleSpeedup)
	}
	out.AvgPredSpeedup = mean(predS)
	out.AvgOracleSpeedup = mean(oracleS)
	out.Accuracy = float64(correct) / float64(len(out.Rows))
	return out, nil
}

// Render prints Table IX.
func (t *TableIXResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Predicted and actual best iso-scale architecture per matrix")
	fmt.Fprintf(w, "%-8s%12s%14s%12s%14s%10s\n",
		"matrix", "pred best", "pred speedup", "act best", "act speedup", "correct?")
	for _, r := range t.Rows {
		c := "N"
		if r.Correct {
			c = "Y"
		}
		fmt.Fprintf(w, "%-8s%12s%14.2f%12s%14.2f%10s\n",
			r.Short, r.PredBest, r.PredSpeedup, r.ActualBest, r.OracleSpeedup, c)
	}
	fmt.Fprintf(w, "AVG: predicted-choice speedup %.2f, oracle %.2f, accuracy %.0f%%\n",
		t.AvgPredSpeedup, t.AvgOracleSpeedup, t.Accuracy*100)
}
