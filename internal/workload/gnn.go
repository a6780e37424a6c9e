package workload

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/obs"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// GNNConfig configures a multi-layer GNN forward pass.
type GNNConfig struct {
	// Layers is the number of aggregation layers (H ← ReLU(A·H) chained);
	// must be at least 1.
	Layers int
	// Strategy selects the partitioning method for the one amortized plan
	// (zero value: the full HotTiles method).
	Strategy hotcore.Strategy
	// OpsPerMAC is the arithmetic-intensity factor (0 means plain SpMM, 2).
	OpsPerMAC float64
	// Seed feeds IUnaware's random assignment.
	Seed int64
	// NoReLU disables the activation between layers (pure repeated SpMM).
	NoReLU bool
	// SkipFunctional runs timing only: no layer outputs are produced and
	// the features are never read, so sweeps can pass nil features.
	SkipFunctional bool
	// Timeline, when non-nil, receives each layer's simulator events,
	// labeled "<Label>/layer<i>"; Label defaults to "gnn". Each layer is
	// also a "layer<i>" span under the span ctx carries, if any.
	Timeline *obs.Timeline
	Label    string
	// Units, when non-nil, holds the unit pools across calls: a caller
	// that runs the same plan again (hottilesd keeps one per cached plan)
	// builds them on the first call only, and the call releases the
	// grid's row-major view they were built from. Nil builds them once
	// per call.
	Units *sim.UnitCache
}

// GNNResult reports one forward pass.
type GNNResult struct {
	// Plan is the preprocessing plan shared by every layer.
	Plan *hotcore.Prep
	// LayerTimes are the per-layer simulated runtimes in seconds. The
	// timing model is input-value independent, so with a fixed plan the
	// layers cost the same — that equality is itself the amortization
	// statement the paper makes.
	LayerTimes []float64
	// SimTotal is the summed simulated runtime of all layers.
	SimTotal float64
	// Output is the final layer's feature matrix (nil with SkipFunctional).
	Output *dense.Matrix
}

// GNN runs a multi-layer GNN forward pass on architecture a: partition the
// adjacency matrix once, then simulate layer after layer, feeding each
// layer's Dout through ReLU into the next layer's Din. The preprocessing
// plan is built exactly once — the paper's train-once/infer-many
// amortization — and ctx cancels both the pipeline (at stage boundaries)
// and the layer loop (between layers).
func GNN(ctx context.Context, m *sparse.COO, a *arch.Arch, features *dense.Matrix, cfg GNNConfig) (*GNNResult, error) {
	if cfg.OpsPerMAC == 0 {
		cfg.OpsPerMAC = 2
	}
	plan, err := hotcore.PreprocessCtx(ctx, m, a, hotcore.Options{
		Strategy:  cfg.Strategy,
		OpsPerMAC: cfg.OpsPerMAC,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return GNNWithPlan(ctx, plan, a, features, cfg)
}

// GNNWithPlan is GNN with a prebuilt (possibly cached or deserialized)
// plan — the hottilesd /gnn endpoint reuses planstore entries through this.
func GNNWithPlan(ctx context.Context, plan *hotcore.Prep, a *arch.Arch, features *dense.Matrix, cfg GNNConfig) (*GNNResult, error) {
	if cfg.Layers < 1 {
		return nil, fmt.Errorf("workload: GNN needs at least 1 layer, got %d", cfg.Layers)
	}
	if plan == nil || plan.Grid == nil {
		return nil, fmt.Errorf("workload: nil plan")
	}
	if cfg.OpsPerMAC == 0 {
		cfg.OpsPerMAC = 2
	}
	if !cfg.SkipFunctional {
		if features == nil || features.N != plan.Grid.N || features.K != a.K {
			return nil, fmt.Errorf("workload: features must be %dx%d", plan.Grid.N, a.K)
		}
	}
	label := cfg.Label
	if label == "" {
		label = "gnn"
	}
	gnnRuns.Inc()

	sr := semiring.PlusTimes()
	sr.OpsPerMAC = cfg.OpsPerMAC
	res := &GNNResult{Plan: plan, LayerTimes: make([]float64, 0, cfg.Layers)}
	parent := obs.CtxSpan(ctx)
	// Every layer simulates the same (grid, assignment, architecture): the
	// unit cache builds the pools on layer 0 and the remaining layers skip
	// construction (including the cold pool's cache-model replay) entirely.
	units := cfg.Units
	if units == nil {
		units = new(sim.UnitCache)
	} else {
		// The cold pool is built from the grid's memoized row-major view
		// (12 bytes per nonzero), and nothing else here reads it. A caller
		// that keeps the pools keeps the plan long after they are built,
		// so the view is released rather than held beside them.
		defer plan.Grid.ReleaseRowMajor()
	}
	h := features
	for layer := 0; layer < cfg.Layers; layer++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("workload: GNN canceled at layer %d: %w", layer, cerr)
		}
		sp := parent.Start(fmt.Sprintf("layer%d", layer))
		r, err := sim.Run(plan.Grid, plan.Partition.Hot, a, h, sim.Options{
			Serial:         plan.Partition.Serial,
			Semiring:       &sr,
			SkipFunctional: cfg.SkipFunctional,
			Timeline:       cfg.Timeline,
			TimelineLabel:  fmt.Sprintf("%s/layer%d", label, layer),
			Units:          units,
		})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("workload: GNN layer %d: %w", layer, err)
		}
		gnnLayers.Inc()
		res.LayerTimes = append(res.LayerTimes, r.Time)
		res.SimTotal += r.Time
		if !cfg.SkipFunctional {
			h = r.Output
			if layer < cfg.Layers-1 && !cfg.NoReLU {
				relu(h)
			}
		}
	}
	if !cfg.SkipFunctional {
		res.Output = h
	}
	return res, nil
}
