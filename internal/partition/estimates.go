package partition

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/tile"
)

// Estimates bundles the per-tile model estimates of both worker types for
// one grid: the model's half of a partitioning, computed once. Run and
// Predict take them, so loops over candidate assignments or strategies —
// the Figure 16/17 error studies, the experiment harness's strategy grids,
// the evolving-graph re-plan trigger — do not redo the O(tiles) model
// evaluation per call.
//
// The Config passed to Run or Predict may carry different worker Counts
// than the one used to build the Estimates (counts only divide the pool
// times), but the workers' model parameters and the Params must match the
// build-time ones.
type Estimates struct {
	// Grid is the tiling the estimates were computed for.
	Grid *tile.Grid
	// Hot[i]/Cold[i] are the estimates for Grid.Tiles[i] on one hot/cold
	// worker.
	Hot, Cold []model.Estimate
}

// NewEstimates evaluates both worker types' per-tile estimates for g
// (in parallel over tiles).
func NewEstimates(g *tile.Grid, cfg *Config) (*Estimates, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Estimates{
		Grid: g,
		Hot:  model.EstimateGrid(cfg.Hot, g, cfg.Params),
		Cold: model.EstimateGrid(cfg.Cold, g, cfg.Params),
	}, nil
}

// check verifies the estimates cover the grid's tiles.
func (es *Estimates) check() error {
	if es == nil || es.Grid == nil {
		return fmt.Errorf("partition: nil estimates")
	}
	n := len(es.Grid.Tiles)
	if len(es.Hot) != n || len(es.Cold) != n {
		return fmt.Errorf("partition: estimates cover %d/%d tiles, grid has %d",
			len(es.Hot), len(es.Cold), n)
	}
	return nil
}

// Predict returns the model's predicted runtime for an arbitrary
// assignment executed in the given mode, with readjusted totals: the
// evaluation every Run result carries, for assignments no Strategy makes
// (the evolving-graph re-plan trigger prices a stale one).
func Predict(es *Estimates, cfg *Config, hot []bool, serial bool) (float64, Totals, error) {
	if err := cfg.validate(); err != nil {
		return 0, Totals{}, err
	}
	if err := es.check(); err != nil {
		return 0, Totals{}, err
	}
	if len(hot) != len(es.Grid.Tiles) {
		return 0, Totals{}, fmt.Errorf("partition: assignment length %d, want %d", len(hot), len(es.Grid.Tiles))
	}
	r := es.evaluate(cfg, hot, 0, serial)
	return r.Predicted, r.Totals, nil
}

// evaluate is the Result of assignment hot, produced by heuristic h (0 for
// the baselines) and executed serially or in parallel.
func (es *Estimates) evaluate(cfg *Config, hot []bool, h Heuristic, serial bool) Result {
	t := es.totals(cfg, hot)
	return Result{
		Hot:       hot,
		Heuristic: h,
		Serial:    serial,
		Predicted: predictedRuntime(es.Grid, cfg, hot, t, serial),
		Totals:    t,
	}
}
