package workload

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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

// evolveOracle is the per-threshold evolve loop EvolveSweep replaced, kept
// as an oracle: one threshold, a private working copy mutated in place,
// and every step re-tiled, re-estimated and (when triggered) re-planned on
// its own.
func evolveOracle(ctx context.Context, m *sparse.COO, a *arch.Arch, batches [][]sparse.Edit, cfg EvolveConfig) (*EvolveResult, error) {
	if cfg.OpsPerMAC == 0 {
		cfg.OpsPerMAC = 2
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
	for step, edits := range batches {
		st, fresh, err := evolveStepOracle(ctx, cur, a, plan, edits, &pcfg, &sr, popts, cfg)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", step, err)
		}
		if fresh != nil {
			res.Replans++
			plan = fresh
			res.Plan = plan
		}
		res.Steps = append(res.Steps, st)
		res.SimTotal += st.SimTime
	}
	res.Matrix = cur
	return res, nil
}

func evolveStepOracle(ctx context.Context, cur *sparse.COO, a *arch.Arch, plan *hotcore.Prep, edits []sparse.Edit, pcfg *partition.Config, sr *semiring.Semiring, popts hotcore.Options, cfg EvolveConfig) (EvolveStep, *hotcore.Prep, error) {
	var st EvolveStep
	if err := cur.ApplyEdits(edits); err != nil {
		return st, nil, err
	}
	g, err := tile.Partition(cur, a.TileH, a.TileW)
	if err != nil {
		return st, nil, err
	}
	es, err := partition.NewEstimates(g, pcfg)
	if err != nil {
		return st, nil, err
	}
	hot := carryAssignment(plan, g)
	stalePred, _, err := partition.Predict(es, pcfg, hot, plan.Partition.Serial)
	if err != nil {
		return st, nil, err
	}
	drift := Drift(plan.Partition.Predicted, stalePred)
	st = EvolveStep{
		Edits: len(edits), NNZ: cur.NNZ(),
		PlanPred: plan.Partition.Predicted, StalePred: stalePred, Drift: drift,
	}
	var fresh *hotcore.Prep
	grid, serial := g, plan.Partition.Serial
	if ShouldReplan(cfg.Threshold, drift) {
		if fresh, err = hotcore.PreprocessCtx(ctx, cur, a, popts); err != nil {
			return st, nil, err
		}
		st.Replanned = true
		grid, hot, serial = fresh.Grid, fresh.Partition.Hot, fresh.Partition.Serial
	}
	r, err := sim.Run(grid, hot, a, cfg.Din, sim.Options{
		Serial: serial, Semiring: sr, SkipFunctional: cfg.SkipFunctional,
	})
	if err != nil {
		return st, nil, err
	}
	st.SimTime = r.Time
	return st, fresh, nil
}

// TestEvolveSweepMatchesPerThresholdOracle pins the step-major sweep to
// the per-threshold loop on the full threshold ladder: identical steps,
// re-plan counts and bit-identical simulated totals per threshold, final
// plans that serialize byte-identically, and equal final matrices. One
// seed runs the functional path too, so shared unit pools are exercised
// under real execution.
func TestEvolveSweepMatchesPerThresholdOracle(t *testing.T) {
	ths := []float64{-1, 0.5, 0.2, 0.1, 0.05, 0.02, 0}
	for trial, seed := range []int64{40, 41, 42} {
		m := testMatrix(t, seed, 512, 64, 3000, 1500)
		a := smallArch()
		batches, err := EditStream(seed+10, m, 5, 400, 100)
		if err != nil {
			t.Fatal(err)
		}
		cfg := EvolveConfig{Seed: seed, SkipFunctional: trial != 0}
		if trial == 0 {
			cfg.Din = dense.NewRandom(rand.New(rand.NewSource(seed)), m.N, a.K)
		}
		got, err := EvolveSweep(context.Background(), m, &a, batches, ths, cfg)
		if err != nil {
			t.Fatal(err)
		}
		replans := 0
		for i, th := range ths {
			cfg.Threshold = th
			want, err := evolveOracle(context.Background(), m, &a, batches, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := got[i]
			if !reflect.DeepEqual(g.Steps, want.Steps) {
				t.Fatalf("seed %d threshold %g: steps\n got %+v\nwant %+v", seed, th, g.Steps, want.Steps)
			}
			if g.Replans != want.Replans || math.Float64bits(g.SimTotal) != math.Float64bits(want.SimTotal) {
				t.Fatalf("seed %d threshold %g: replans %d sim %v, oracle %d %v",
					seed, th, g.Replans, g.SimTotal, want.Replans, want.SimTotal)
			}
			var gp, wp bytes.Buffer
			if err := hotcore.WritePlan(&gp, g.Plan); err != nil {
				t.Fatal(err)
			}
			if err := hotcore.WritePlan(&wp, want.Plan); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gp.Bytes(), wp.Bytes()) {
				t.Fatalf("seed %d threshold %g: final plans differ", seed, th)
			}
			if !reflect.DeepEqual(g.Matrix, want.Matrix) {
				t.Fatalf("seed %d threshold %g: final matrices differ", seed, th)
			}
			replans += g.Replans
		}
		if replans == 0 || replans == len(ths)*len(batches) {
			t.Fatalf("seed %d: %d re-plans in total — the ladder does not separate thresholds", seed, replans)
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on: a
// deterministic way to cancel a run at each point it checks ctx.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvolveSweepCancelBetweenSteps cancels the sweep at every ctx check in
// turn: each cancellation surfaces as context.Canceled, and cancelling
// between steps reports the step it stopped at.
func TestEvolveSweepCancelBetweenSteps(t *testing.T) {
	m := testMatrix(t, 43, 256, 64, 1500, 800)
	a := smallArch()
	batches, err := EditStream(44, m, 3, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	ths := []float64{-1, 0.1, 0}
	atStep := make([]bool, len(batches))
	for n := int64(0); ; n++ {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(n)
		_, err := EvolveSweep(ctx, m, &a, batches, ths, EvolveConfig{SkipFunctional: true})
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %d checks: %v does not wrap context.Canceled", n, err)
		}
		for step := range batches {
			if strings.Contains(err.Error(), fmt.Sprintf("canceled at step %d:", step)) {
				atStep[step] = true
			}
		}
		if n > 1000 {
			t.Fatal("sweep never completed")
		}
	}
	for step, seen := range atStep {
		if !seen {
			t.Fatalf("no cancellation reported at step %d (saw %v)", step, atStep)
		}
	}
}

// TestEvolveSweepSpansPerStep pins the span shape: a sweep records one
// "step<i>" span per step under the span ctx carries — covering the
// step's shared tiling and estimates and its fan-out over thresholds — not
// one per threshold-step.
func TestEvolveSweepSpansPerStep(t *testing.T) {
	m := testMatrix(t, 45, 256, 64, 1500, 800)
	a := smallArch()
	batches, err := EditStream(46, m, 3, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("sweep")
	ctx := obs.WithSpan(context.Background(), tr.Root())
	if _, err := EvolveSweep(ctx, m, &a, batches, []float64{-1, 0.1, 0}, EvolveConfig{SkipFunctional: true}); err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, c := range tr.SpanTree().Children {
		if strings.HasPrefix(c.Name, "step") {
			steps = append(steps, c.Name)
		}
	}
	if want := []string{"step0", "step1", "step2"}; !reflect.DeepEqual(steps, want) {
		t.Fatalf("step spans %v, want %v", steps, want)
	}
}
