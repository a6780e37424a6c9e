package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/hotcore"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gnnLayers is the forward-pass depth of the GNN study — deep enough that
// the one-plan amortization is visible, shallow enough to stay cheap.
const gnnLayers = 4

// GNNRow is one matrix's multi-layer forward pass under both strategies.
type GNNRow struct {
	Short string
	// LayerMS is the per-layer simulated time under HotTiles (identical
	// across layers — the plan is built once and the timing model is
	// value-independent, so one number tells the whole story).
	LayerMS float64
	// HotTilesMS and IUnawareMS are the totals across all layers.
	HotTilesMS, IUnawareMS float64
	// Speedup is IUnaware/HotTiles.
	Speedup float64
	// FunctionalOK reports that the chained simulated output matches the
	// reference SpMM chained by hand (printed as ok/FAIL, never a float:
	// golden files must not depend on platform rounding).
	FunctionalOK bool
}

// GNNStudy is the multi-layer GNN inference experiment: the §VI-B
// train-once/infer-many workload, executed rather than gestured at.
type GNNStudy struct {
	Rows    []GNNRow
	Geomean float64
}

// gnnSuite picks three suite matrices spanning the IMH spectrum.
func gnnSuite() []string { return []string{"ski", "pok", "wik"} }

// GNN runs the multi-layer GNN study on SPADE-Sextans (scale 4), one
// concurrent job per matrix. ctx bounds every preprocessing call the study
// issues.
func (e *Env) GNN(ctx context.Context) (*GNNStudy, error) {
	shorts := gnnSuite()
	rows := make([]GNNRow, len(shorts))
	if err := par.ForEachErr(len(shorts), func(i int) error {
		b, ok := gen.ByShort(shorts[i])
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %q", shorts[i])
		}
		a := arch.SpadeSextans(4)
		a.TileH, a.TileW = e.TileSize(), e.TileSize()
		m := e.Matrix(b)
		features := dense.NewRandom(rand.New(rand.NewSource(e.Seed)), m.N, a.K)

		ht, err := workload.GNN(ctx, m, &a, features, workload.GNNConfig{
			Layers: gnnLayers, Seed: e.Seed, Label: "gnn/" + b.Short, Timeline: e.timeline,
		})
		if err != nil {
			return err
		}
		iu, err := workload.GNN(ctx, m, &a, nil, workload.GNNConfig{
			Layers: gnnLayers, Strategy: hotcore.StrategyIUnaware, Seed: e.Seed,
			SkipFunctional: true,
		})
		if err != nil {
			return err
		}

		// Verify the chained numerics against the reference, by hand.
		want := features.Clone()
		for layer := 0; layer < gnnLayers; layer++ {
			next := dense.NewMatrix(m.N, a.K)
			if serr := dense.SpMM(m, want, next); serr != nil {
				return serr
			}
			if layer < gnnLayers-1 {
				for j, v := range next.Data {
					if v < 0 {
						next.Data[j] = 0
					}
				}
			}
			want = next
		}
		// Relative comparison: four unnormalized layers grow the values by
		// orders of magnitude, so an absolute tolerance would be meaningless.
		diff, err := ht.Output.MaxAbsDiff(want)
		if err != nil {
			return err
		}
		maxAbs := 1.0
		for _, v := range want.Data {
			if v > maxAbs {
				maxAbs = v
			} else if -v > maxAbs {
				maxAbs = -v
			}
		}
		rows[i] = GNNRow{
			Short:        b.Short,
			LayerMS:      ht.LayerTimes[0] * 1e3,
			HotTilesMS:   ht.SimTotal * 1e3,
			IUnawareMS:   iu.SimTotal * 1e3,
			Speedup:      iu.SimTotal / ht.SimTotal,
			FunctionalOK: diff <= 1e-9*maxAbs,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	st := &GNNStudy{Rows: rows}
	var sp []float64
	for _, r := range rows {
		sp = append(sp, r.Speedup)
	}
	st.Geomean = geomean(sp)
	return st, nil
}

// Render prints the GNN study.
func (g *GNNStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "GNN inference, %d layers (SPADE-Sextans 4-4) — one plan amortized across layers\n", gnnLayers)
	fmt.Fprintf(w, "%-8s%12s%16s%16s%10s%8s\n",
		"matrix", "layer ms", "HotTiles ms", "IUnaware ms", "speedup", "chain")
	for _, r := range g.Rows {
		chain := "ok"
		if !r.FunctionalOK {
			chain = "FAIL"
		}
		fmt.Fprintf(w, "%-8s%12.4f%16.4f%16.4f%10.2f%8s\n",
			r.Short, r.LayerMS, r.HotTilesMS, r.IUnawareMS, r.Speedup, chain)
	}
	fmt.Fprintf(w, "geomean speedup over IUnaware: %.2fx\n", g.Geomean)
}

// Evolve-study shape: one edit stream, a descending threshold ladder, and a
// re-plan cost charged in units of simulated inference time so the combined
// cost column is deterministic (no wall clock in golden files).
const (
	evolveShort   = "pok" // social network: churn-heavy in the wild
	evolveBatches = 6
	// replanCostX prices one re-plan at this many inferences — the order of
	// magnitude Figure 18 measures for preprocessing vs one SpMM.
	replanCostX = 20
)

// EvolveRow is one threshold's outcome on the shared edit stream.
type EvolveRow struct {
	// Threshold < 0 renders as "never", 0 as "always".
	Threshold float64
	Replans   int
	// SimMS is the summed inference time; CombinedMS adds the priced
	// re-plans; MaxDrift is the largest staleness the trigger saw.
	SimMS, CombinedMS, MaxDrift float64
}

// EvolveStudy is the staleness-vs-re-plan-cost sweep.
type EvolveStudy struct {
	Short                  string
	InsertsPer, DeletesPer int
	// BaselineMS is one inference on the initial plan — the unit the
	// re-plan cost is priced in.
	BaselineMS float64
	Rows       []EvolveRow
	// Best is the threshold with the lowest combined cost.
	Best EvolveRow
}

// evolveThresholds is the descending ladder: never, looser to tighter, always.
func evolveThresholds() []float64 { return []float64{-1, 0.5, 0.2, 0.1, 0.05, 0.02, 0} }

// Evolve runs the evolving-graph study: one preferential-attachment edit
// stream against the pok matrix, swept over the re-plan threshold ladder
// in one step-major workload.EvolveSweep. ctx bounds the baseline
// preprocessing and the sweep.
func (e *Env) Evolve(ctx context.Context) (*EvolveStudy, error) {
	b, ok := gen.ByShort(evolveShort)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", evolveShort)
	}
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = e.TileSize(), e.TileSize()
	m := e.Matrix(b)

	// Batches sized relative to the matrix so the study sweeps the same
	// relative churn at every scale.
	insertsPer, deletesPer := m.NNZ()/5, m.NNZ()/20
	batches, err := workload.EditStream(e.Seed, m, evolveBatches, insertsPer, deletesPer)
	if err != nil {
		return nil, err
	}

	// Baseline: one inference on the initial plan, pricing the re-plan.
	plan, err := hotcore.PreprocessCtx(ctx, m, &a, hotcore.Options{
		OpsPerMAC: 2, Seed: e.Seed,
	})
	if err != nil {
		return nil, err
	}
	sr := semiring.PlusTimes()
	base, err := sim.Run(plan.Grid, plan.Partition.Hot, &a, nil, sim.Options{
		Serial: plan.Partition.Serial, Semiring: &sr, SkipFunctional: true,
	})
	if err != nil {
		return nil, err
	}
	replanCost := replanCostX * base.Time

	ths := evolveThresholds()
	runs, err := workload.EvolveSweep(ctx, m, &a, batches, ths, workload.EvolveConfig{
		Seed: e.Seed, SkipFunctional: true, Label: "evolve", Timeline: e.timeline,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]EvolveRow, len(ths))
	for i, res := range runs {
		row := EvolveRow{Threshold: ths[i], Replans: res.Replans, SimMS: res.SimTotal * 1e3}
		for _, st := range res.Steps {
			if st.Drift > row.MaxDrift {
				row.MaxDrift = st.Drift
			}
		}
		row.CombinedMS = row.SimMS + float64(res.Replans)*replanCost*1e3
		rows[i] = row
	}

	st := &EvolveStudy{
		Short: evolveShort, InsertsPer: insertsPer, DeletesPer: deletesPer,
		BaselineMS: base.Time * 1e3, Rows: rows, Best: rows[0],
	}
	for _, r := range rows[1:] {
		if r.CombinedMS < st.Best.CombinedMS {
			st.Best = r
		}
	}
	return st, nil
}

// thresholdLabel renders the ladder's spelling of a threshold.
func thresholdLabel(th float64) string {
	switch {
	case th < 0:
		return "never"
	case th == 0:
		return "always"
	default:
		return fmt.Sprintf("%.2f", th)
	}
}

// Render prints the evolve study.
func (s *EvolveStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "Evolving graph (%s, SPADE-Sextans 4-4) — staleness vs re-plan cost\n", s.Short)
	fmt.Fprintf(w, "%d batches of +%d/-%d edges; a re-plan costs %dx one inference (%.4f ms)\n",
		evolveBatches, s.InsertsPer, s.DeletesPer, replanCostX, s.BaselineMS)
	fmt.Fprintf(w, "%-10s%9s%14s%12s%14s\n", "threshold", "replans", "sim ms", "max drift", "combined ms")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%-10s%9d%14.4f%12.4f%14.4f\n",
			thresholdLabel(r.Threshold), r.Replans, r.SimMS, r.MaxDrift, r.CombinedMS)
	}
	fmt.Fprintf(w, "best combined cost at threshold %s (%.4f ms)\n",
		thresholdLabel(s.Best.Threshold), s.Best.CombinedMS)
}
