package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/partition"
)

// Fig17Result is the prediction-error study: per matrix and architecture,
// the relative error of the model's predicted execution time against the
// simulated one, for HotOnly, ColdOnly and HotTiles.
type Fig17Result struct {
	Archs []Fig17Arch
	// AvgError maps strategy name to the mean |error| across matrices and
	// architectures (the paper reports 4.8% / 19.6% / 12.4%).
	AvgError map[partition.Strategy]float64
}

// Fig17Arch is one architecture's error rows.
type Fig17Arch struct {
	ArchName string
	Rows     []Fig17Row
}

// Fig17Row is one matrix's signed relative errors (positive =
// over-prediction).
type Fig17Row struct {
	Short                       string
	HotOnly, ColdOnly, HotTiles float64
}

// Fig17 reproduces the prediction-error figure on SPADE-Sextans (scale 4)
// and PIUMA: the predicted and simulated times of the strategy grid.
func (e *Env) Fig17() (*Fig17Result, error) {
	g, err := e.strategyGrid([]arch.Arch{arch.SpadeSextans(4), arch.PIUMA()}, gen.Benchmarks(),
		[]partition.Strategy{partition.HotOnly, partition.ColdOnly, partition.HotTiles}, 2)
	if err != nil {
		return nil, err
	}
	out := &Fig17Result{AvgError: map[partition.Strategy]float64{}}
	sums := map[partition.Strategy][]float64{}
	for ai, a := range g.archs {
		fa := Fig17Arch{ArchName: a.Name}
		for bi, b := range g.suite {
			rels := make([]float64, len(g.strategies))
			for si, s := range g.strategies {
				r := g.at(ai, bi, si)
				rels[si] = (r.Predicted - r.Time) / r.Time
				sums[s] = append(sums[s], math.Abs(rels[si]))
			}
			fa.Rows = append(fa.Rows, Fig17Row{Short: b.Short,
				HotOnly: rels[0], ColdOnly: rels[1], HotTiles: rels[2]})
		}
		out.Archs = append(out.Archs, fa)
	}
	for s, xs := range sums {
		out.AvgError[s] = mean(xs)
	}
	return out, nil
}

// Render prints the Figure 17 error series.
func (f *Fig17Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Relative error of predicted vs simulated execution time (%)")
	for _, fa := range f.Archs {
		fmt.Fprintf(w, "%s\n%-8s%10s%10s%10s\n", fa.ArchName, "matrix", "HotOnly", "ColdOnly", "HotTiles")
		for _, r := range fa.Rows {
			fmt.Fprintf(w, "%-8s%9.1f%%%9.1f%%%9.1f%%\n",
				r.Short, r.HotOnly*100, r.ColdOnly*100, r.HotTiles*100)
		}
	}
	fmt.Fprintf(w, "average |error|: HotOnly %.1f%%, ColdOnly %.1f%%, HotTiles %.1f%%\n",
		f.AvgError[partition.HotOnly]*100, f.AvgError[partition.ColdOnly]*100, f.AvgError[partition.HotTiles]*100)
}
