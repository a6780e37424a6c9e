// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII) on the scaled synthetic benchmark suite: Figures 4, 5,
// 10-18 and Tables VI, VII, IX. Each experiment returns a typed result and
// renders the same rows/series the paper reports. Studies registers them
// all; cmd/spmmsim prints them and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// Env builds and caches benchmark matrices, tilings, per-tile model
// estimates, and simulation runs so experiments that share work (most of
// them) do not repeat it. All caches are per-key singleflight (par.Cache):
// under the parallel experiments fan-out, concurrent requests for the same
// key block on one builder and observe the same pointer, so work is never
// duplicated and two distinct values are never published for one key.
type Env struct {
	// Scale divides the paper's row counts (DESIGN.md §2); 64 reproduces
	// the evaluation in minutes, larger values suit tests.
	Scale int
	// Seed drives matrix generation and IUnaware's random assignment.
	Seed int64

	// trace receives one span per cache build, grouped into the pipeline
	// phases generate/tile/estimate/exec (nil = tracing disabled; every
	// span call below is nil-safe and costs only a nil check).
	trace *obs.Tracer
	// timeline receives per-worker simulator events for every exec (nil =
	// disabled); each run's tracks are labeled with its cache key.
	timeline *obs.Timeline

	mats  par.Cache[string, *sparse.COO]
	grids par.Cache[string, *tile.Grid]
	// ests caches partition.Estimates per (arch name, benchmark, opsPerMAC)
	// at the Env's tile size; arch names uniquely identify worker model
	// parameters across the preset architectures, and every strategy of an
	// (arch, benchmark) cell shares one entry.
	ests par.Cache[string, *partition.Estimates]
	runs par.Cache[string, *runOut]
	// archs canonicalizes the by-value arch copies exec works on into one
	// stable pointer per distinct configuration (keyed on the gob encoding,
	// which covers every field), because units is pointer-keyed.
	archs par.Cache[string, *arch.Arch]
	// units memoizes built simulator unit pools across runs — strategies
	// that degenerate to the same assignment (HotTiles falling back to
	// all-cold on uniform matrices, tables revisiting a figure's cells)
	// skip pool construction and the cold pool's cache-model replay.
	units sim.UnitCache
}

// NewEnv returns an Env at the given matrix scale.
func NewEnv(scale int, seed int64) *Env {
	return &Env{Scale: scale, Seed: seed}
}

// SetTracer attaches an observability tracer (nil disables tracing, the
// default). Spans are recorded only when a cache entry is actually built,
// so a traced re-run of a warm Env shows cache hits in the counters rather
// than duplicate spans.
func (e *Env) SetTracer(t *obs.Tracer) { e.trace = t }

// SetTimeline attaches the event recorder simulated runs report to (nil
// disables, the default). Each exec's worker tracks are prefixed with its
// cache key, e.g. "SPADE|scircuit|HotTiles|2/hot/w0".
func (e *Env) SetTimeline(tl *obs.Timeline) { e.timeline = tl }

// Per-cell wall-time histogram: one observation per cache-missed exec
// (partition + simulate), the unit of work the experiment fan-out
// schedules.
var execWallHist = obs.NewHistogram("experiments.exec.wall.ns")

// TileSize returns the tile dimension matching the matrix scale: the
// paper's 8192 divided by the same factor, clamped to [64, 512].
func (e *Env) TileSize() int {
	t := 8192 * 2 / e.Scale // ×2: keeps ≥ 8×8 tiles per scaled matrix
	if t > 512 {
		t = 512
	}
	if t < 64 {
		t = 64
	}
	return t
}

// Matrix builds (or returns the cached) structural mimic of benchmark b.
func (e *Env) Matrix(b gen.Benchmark) *sparse.COO {
	m, _ := e.mats.Get(b.Short, func() (*sparse.COO, error) {
		sp := e.trace.Phase("generate").Start(b.Short)
		built := b.Build(e.Seed, e.Scale)
		sp.SetAttr("nnz", fmt.Sprint(built.NNZ()))
		sp.SetAttr("n", fmt.Sprint(built.N))
		sp.End()
		return built, nil
	})
	return m
}

// Grid tiles benchmark b's matrix at the given tile size (cached).
func (e *Env) Grid(b gen.Benchmark, tileSize int) (*tile.Grid, error) {
	key := fmt.Sprintf("%s/%d", b.Short, tileSize)
	return e.grids.Get(key, func() (*tile.Grid, error) {
		m := e.Matrix(b)
		sp := e.trace.Phase("tile").Start(key)
		g, err := tile.Partition(m, tileSize, tileSize)
		if g != nil {
			sp.SetAttr("tiles", fmt.Sprint(len(g.Tiles)))
		}
		sp.End()
		return g, err
	})
}

// estimates returns the cached per-tile model estimates for architecture a
// (already at the Env's tile size) on benchmark b's grid.
func (e *Env) estimates(a *arch.Arch, b gen.Benchmark, opsPerMAC float64) (*partition.Estimates, error) {
	key := fmt.Sprintf("%s|%s|%g", a.Name, b.Short, opsPerMAC)
	return e.ests.Get(key, func() (*partition.Estimates, error) {
		g, err := e.Grid(b, a.TileH)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Phase("estimate").Start(key)
		defer sp.End()
		cfg := a.Config(opsPerMAC)
		return partition.NewEstimates(g, &cfg)
	})
}

// archPtr returns the canonical pointer for an arch value. Two exec calls
// carrying equal configurations observe the same pointer, so pointer-keyed
// downstream caches (the unit cache) can hit across them.
func (e *Env) archPtr(a arch.Arch) (*arch.Arch, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&a); err != nil {
		return nil, err
	}
	return e.archs.Get(buf.String(), func() (*arch.Arch, error) {
		cp := a
		return &cp, nil
	})
}

// Strategy identifiers reused across experiments. A strategy may also
// force one HotTiles heuristic, spelled "heur:<Heuristic>" (heurStrategy).
const (
	StratHotOnly  = "HotOnly"
	StratColdOnly = "ColdOnly"
	StratIUnaware = "IUnaware"
	StratHotTiles = "HotTiles"
)

// heuristics are the four HotTiles subproblems (Table II), in Figure 12's
// column order.
var heuristics = []partition.Heuristic{
	partition.MinTimeParallel, partition.MinTimeSerial,
	partition.MinByteParallel, partition.MinByteSerial,
}

// heurStrategy is the strategy that forces heuristic h (Figure 12).
func heurStrategy(h partition.Heuristic) string { return "heur:" + h.String() }

// heuristicOf reports the heuristic a "heur:" strategy forces.
func heuristicOf(strat string) (partition.Heuristic, bool) {
	if name, ok := strings.CutPrefix(strat, "heur:"); ok {
		for _, h := range heuristics {
			if h.String() == name {
				return h, true
			}
		}
	}
	return 0, false
}

// runOut is one cached simulated execution.
type runOut struct {
	Time      float64          // simulated seconds (including merge)
	Sim       *sim.Result      // full simulator statistics
	Part      partition.Result // the partitioning used
	Predicted float64          // the model's predicted runtime for this run
}

// exec runs strategy strat for benchmark b on architecture a (with the
// arch's tile size overridden to the Env's) and caches the outcome.
// opsPerMAC carries the gSpMM intensity (2 = plain SpMM). Forced
// heuristics are only run for plain SpMM (Figure 12), so their cache key
// carries no intensity; callers pass 2.
func (e *Env) exec(a arch.Arch, b gen.Benchmark, strat string, opsPerMAC float64) (*runOut, error) {
	a.TileH, a.TileW = e.TileSize(), e.TileSize()
	h, isHeur := heuristicOf(strat)
	key := fmt.Sprintf("%s|%s|%s|%g", a.Name, b.Short, strat, opsPerMAC)
	if isHeur {
		key = fmt.Sprintf("%s|%s|%s", a.Name, b.Short, strat)
	}
	return e.runs.Get(key, func() (*runOut, error) {
		done := obs.StartProgress("exec " + key)
		defer done()
		t0 := time.Now()
		defer func() { execWallHist.ObserveSince(t0) }()
		es, err := e.estimates(&a, b, opsPerMAC)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Phase("exec").Start(key)
		defer sp.End()
		g := es.Grid
		cfg := a.Config(opsPerMAC)

		var part partition.Result
		serial := false
		switch {
		case isHeur:
			part, err = partition.RunHeuristicFrom(es, cfg, h)
			serial = part.Serial
		case strat == StratHotOnly:
			part, err = homogeneous(es, &cfg, partition.AllHot(g))
		case strat == StratColdOnly:
			part, err = homogeneous(es, &cfg, partition.AllCold(g))
		case strat == StratIUnaware:
			part, err = partition.IUnawareFrom(es, cfg, e.Seed)
		case strat == StratHotTiles:
			part, err = partition.HotTilesFrom(es, cfg)
			serial = part.Serial
		default:
			err = fmt.Errorf("experiments: unknown strategy %q", strat)
		}
		if err != nil {
			return nil, err
		}

		// The simulator must see the same arithmetic intensity the
		// partitioner planned for; forced heuristics run the simulator's
		// default semiring.
		var sr *semiring.Semiring
		if !isHeur {
			s := semiring.PlusTimes()
			s.OpsPerMAC = opsPerMAC
			sr = &s
		}
		ap, err := e.archPtr(a)
		if err != nil {
			return nil, err
		}
		sim1 := sp.Start("sim")
		r, err := sim.Run(g, part.Hot, ap, nil, sim.Options{
			Serial:         serial,
			Semiring:       sr,
			SkipFunctional: true,
			Timeline:       e.timeline,
			TimelineLabel:  key,
			Units:          &e.units,
		})
		sim1.End()
		if err != nil {
			return nil, err
		}
		sp.SetAttr("hotNNZ", fmt.Sprint(part.HotNNZ(g)))
		return &runOut{Time: r.Time, Sim: r, Part: part, Predicted: part.Predicted}, nil
	})
}

// homogeneous is the result of sending every tile the way hot says, with
// the model's prediction for it.
func homogeneous(es *partition.Estimates, cfg *partition.Config, hot []bool) (partition.Result, error) {
	pred, tot, err := partition.PredictFrom(es, cfg, hot, false)
	return partition.Result{Hot: hot, Predicted: pred, Totals: tot}, err
}

// Verify functionally executes benchmark b's HotTiles partitioning on
// architecture a and compares against the reference kernel, returning the
// max absolute error. It backs the repository-wide correctness invariant.
func (e *Env) Verify(a arch.Arch, b gen.Benchmark) (float64, error) {
	a.TileH, a.TileW = e.TileSize(), e.TileSize()
	m := e.Matrix(b)
	g, err := e.Grid(b, a.TileH)
	if err != nil {
		return 0, err
	}
	part, err := partition.HotTiles(g, a.Config(2))
	if err != nil {
		return 0, err
	}
	din := dense.NewFilled(m.N, a.K, 1)
	r, err := sim.Run(g, part.Hot, &a, din, sim.Options{Serial: part.Serial})
	if err != nil {
		return 0, err
	}
	want := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(m, din, want); err != nil {
		return 0, err
	}
	return r.Output.MaxAbsDiff(want)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// mean returns the arithmetic mean.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
