package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// EvolveConfig configures an evolving-graph run.
type EvolveConfig struct {
	// Strategy, OpsPerMAC and Seed configure every (re-)partitioning.
	Strategy  hotcore.Strategy
	OpsPerMAC float64
	Seed      int64
	// Threshold is the relative drift that triggers a re-plan: after a
	// batch of edits, the estimator re-predicts the stale plan's runtime on
	// the mutated matrix, and when |stale − planned| / planned ≥ Threshold
	// the matrix is re-partitioned from scratch. 0 re-plans after every
	// batch; a negative threshold never re-plans (pure staleness).
	Threshold float64
	// Din is the dense operand simulated after each batch (nil allowed with
	// SkipFunctional).
	Din *dense.Matrix
	// SkipFunctional runs timing only.
	SkipFunctional bool
	// Timeline, when non-nil, records each step's simulator events under
	// "<Label>/step<i>"; Label defaults to "evolve". Each step is also a
	// "step<i>" span under the span ctx carries, if any.
	Timeline *obs.Timeline
	Label    string
}

// EvolveStep reports one edit batch: the drift the estimator saw, whether
// it crossed the threshold, and the simulated time of the inference run
// that followed.
type EvolveStep struct {
	// Edits is the batch size; NNZ the matrix size after applying it.
	Edits, NNZ int
	// PlanPred is the active plan's predicted runtime at plan time;
	// StalePred is the estimator's prediction for that same (possibly
	// stale) assignment on the mutated matrix; Drift is their relative gap.
	PlanPred, StalePred, Drift float64
	// Replanned reports whether this step re-partitioned.
	Replanned bool
	// SimTime is the simulated runtime of the post-edit inference run.
	SimTime float64
}

// EvolveResult reports a whole evolving-graph run.
type EvolveResult struct {
	Steps []EvolveStep
	// Replans counts the steps that re-partitioned; SimTotal sums every
	// step's simulated time (re-planning cost is accounted by the
	// experiment layer, which prices a re-plan in units of simulated
	// inference time).
	Replans  int
	SimTotal float64
	// Plan is the plan active after the last step; Matrix the final
	// evolved matrix (the caller's input is never mutated).
	Plan   *hotcore.Prep
	Matrix *sparse.COO
}

// Drift returns the relative prediction gap |stale − planned| / planned —
// the staleness signal the re-plan trigger thresholds.
func Drift(planPred, stalePred float64) float64 {
	if planPred <= 0 {
		return 0
	}
	return math.Abs(stalePred-planPred) / planPred
}

// ShouldReplan decides the trigger: re-plan when drift ≥ threshold, with a
// negative threshold meaning "never". Monotone in drift by construction —
// if drift d fires, every d' > d fires (the property test pins this).
func ShouldReplan(threshold, drift float64) bool {
	return threshold >= 0 && drift >= threshold
}

// Evolve applies batches of edge edits to a working copy of m, maintaining
// the matrix incrementally (sparse.ApplyEdits) and the plan lazily: after
// each batch it re-tiles, carries the stale plan's hot/cold decisions onto
// the new grid, asks the analytical model what that stale assignment now
// costs, and re-partitions — cancellably, through PreprocessCtx — only when
// the predicted runtime has drifted past cfg.Threshold. Each batch ends
// with one simulated inference run on whatever plan is active, so the
// result exposes exactly the staleness-vs-re-plan-cost trade-off.
func Evolve(ctx context.Context, m *sparse.COO, a *arch.Arch, batches [][]sparse.Edit, cfg EvolveConfig) (*EvolveResult, error) {
	if cfg.OpsPerMAC == 0 {
		cfg.OpsPerMAC = 2
	}
	label := cfg.Label
	if label == "" {
		label = "evolve"
	}
	popts := hotcore.Options{Strategy: cfg.Strategy, OpsPerMAC: cfg.OpsPerMAC, Seed: cfg.Seed}
	sr := semiring.PlusTimes()
	sr.OpsPerMAC = cfg.OpsPerMAC
	pcfg := a.Config(cfg.OpsPerMAC)

	cur := m.Clone()
	plan, err := hotcore.PreprocessCtx(ctx, cur, a, popts)
	if err != nil {
		return nil, err
	}
	res := &EvolveResult{Steps: make([]EvolveStep, 0, len(batches)), Plan: plan}
	parent := obs.CtxSpan(ctx)
	for step, edits := range batches {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("workload: evolve canceled at step %d: %w", step, cerr)
		}
		sp := parent.Start(fmt.Sprintf("step%d", step))
		st, err := evolveStep(ctx, cur, a, plan, edits, &pcfg, &sr, cfg, label, step)
		sp.End()
		if err != nil {
			return nil, err
		}
		evolveSteps.Inc()
		if st.replanned {
			evolveReplans.Inc()
			res.Replans++
			plan = st.plan
			res.Plan = plan
		}
		res.Steps = append(res.Steps, st.report)
		res.SimTotal += st.report.SimTime
	}
	res.Matrix = cur
	return res, nil
}

type stepOutcome struct {
	report    EvolveStep
	replanned bool
	plan      *hotcore.Prep
}

// evolveStep applies one edit batch and runs the post-edit inference.
func evolveStep(ctx context.Context, cur *sparse.COO, a *arch.Arch, plan *hotcore.Prep, edits []sparse.Edit, pcfg *partition.Config, sr *semiring.Semiring, cfg EvolveConfig, label string, step int) (stepOutcome, error) {
	var out stepOutcome
	if err := cur.ApplyEdits(edits); err != nil {
		return out, fmt.Errorf("workload: evolve step %d: %w", step, err)
	}
	g, err := tile.Partition(cur, a.TileH, a.TileW)
	if err != nil {
		return out, fmt.Errorf("workload: evolve step %d: %w", step, err)
	}
	es, err := partition.NewEstimates(g, pcfg)
	if err != nil {
		return out, fmt.Errorf("workload: evolve step %d: %w", step, err)
	}
	hot := carryAssignment(plan, g)
	stalePred, _, err := partition.PredictFrom(es, pcfg, hot, plan.Partition.Serial)
	if err != nil {
		return out, fmt.Errorf("workload: evolve step %d: %w", step, err)
	}
	drift := Drift(plan.Partition.Predicted, stalePred)
	out.report = EvolveStep{
		Edits:     len(edits),
		NNZ:       cur.NNZ(),
		PlanPred:  plan.Partition.Predicted,
		StalePred: stalePred,
		Drift:     drift,
	}
	grid, serial := g, plan.Partition.Serial
	if ShouldReplan(cfg.Threshold, drift) {
		fresh, perr := hotcore.PreprocessCtx(ctx, cur, a, hotcore.Options{
			Strategy: cfg.Strategy, OpsPerMAC: cfg.OpsPerMAC, Seed: cfg.Seed,
		})
		if perr != nil {
			return out, fmt.Errorf("workload: evolve step %d re-plan: %w", step, perr)
		}
		out.replanned = true
		out.plan = fresh
		out.report.Replanned = true
		grid, hot, serial = fresh.Grid, fresh.Partition.Hot, fresh.Partition.Serial
	}
	r, err := sim.Run(grid, hot, a, cfg.Din, sim.Options{
		Serial:         serial,
		Semiring:       sr,
		SkipFunctional: cfg.SkipFunctional,
		Timeline:       cfg.Timeline,
		TimelineLabel:  fmt.Sprintf("%s/step%d", label, step),
	})
	if err != nil {
		return out, fmt.Errorf("workload: evolve step %d: %w", step, err)
	}
	out.report.SimTime = r.Time
	return out, nil
}

// EditStream generates a deterministic evolving-graph workload: steps
// batches of edits against matrix m, each inserting insertsPer edges —
// preferential attachment, half the inserts reuse an existing edge's row,
// so hot rows get hotter and the plan's hot/cold split actually drifts —
// and deleting deletesPer existing edges uniformly. A shadow copy of the
// matrix tracks the evolving edge set so deletes always name live edges;
// the caller's matrix is not mutated. Values are drawn in [0.5, 1.5) to
// keep edits from cancelling nonzeros accidentally.
func EditStream(seed int64, m *sparse.COO, steps, insertsPer, deletesPer int) ([][]sparse.Edit, error) {
	rng := rand.New(rand.NewSource(seed))
	shadow := m.Clone()
	batches := make([][]sparse.Edit, 0, steps)
	for s := 0; s < steps; s++ {
		edits := make([]sparse.Edit, 0, insertsPer+deletesPer)
		for i := 0; i < insertsPer; i++ {
			var row int32
			if shadow.NNZ() > 0 && rng.Intn(2) == 0 {
				row = shadow.Rows[rng.Intn(shadow.NNZ())]
			} else {
				row = int32(rng.Intn(m.N))
			}
			edits = append(edits, sparse.Edit{
				Row: row,
				Col: int32(rng.Intn(m.N)),
				Val: rng.Float64() + 0.5,
			})
		}
		for i := 0; i < deletesPer && shadow.NNZ() > 0; i++ {
			j := rng.Intn(shadow.NNZ())
			edits = append(edits, sparse.Edit{Row: shadow.Rows[j], Col: shadow.Cols[j], Del: true})
		}
		if err := shadow.ApplyEdits(edits); err != nil {
			return nil, fmt.Errorf("workload: edit stream step %d: %w", s, err)
		}
		batches = append(batches, edits)
	}
	return batches, nil
}
