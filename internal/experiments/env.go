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
	"time"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/reorder"
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
	// ests caches partition.Estimates per (planning model, benchmark,
	// opsPerMAC, kernel) at the Env's tile size; every strategy and every
	// simulated arch of one entry shares it.
	ests par.Cache[runKey, *partition.Estimates]
	runs par.Cache[runKey, *runOut]
	// archs canonicalizes the by-value arch copies cells carry into one
	// stable pointer per distinct configuration (keyed on the gob encoding,
	// which covers every field), because runKey and units are
	// pointer-keyed.
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

// cell is one plan-and-simulate point of the evaluation: strategy on
// benchmark bench, planned on plan (nil: on arch) and simulated on arch,
// at the gSpMM intensity opsPerMAC (0 means plain SpMM's 2) for kernel,
// over the benchmark's matrix in the given order. Every study is a list
// of cells.
type cell struct {
	arch arch.Arch
	// plan is a planning model that differs from the simulated arch
	// (VisLat's perturbed vis_lat); its Name labels it in keys.
	plan      *arch.Arch
	bench     gen.Benchmark
	strategy  partition.Strategy
	opsPerMAC float64
	kernel    model.Kernel
	order     ordering
}

// ordering is the row and column order a cell runs its matrix in (the
// reordering ablation); original is the Env's cached matrix.
type ordering string

const (
	original     ordering = ""
	bfsClustered ordering = "BFS"
	shuffled     ordering = "shuffled"
)

// runKey is the key exec caches a cell under: the cell with its
// architectures replaced by their canonical pointers (Env.archPtr), so
// keys compare whole configurations, never just names, and two
// configurations that share a name get distinct estimates and runs.
type runKey struct {
	sim, plan *arch.Arch
	bench     string
	strategy  partition.Strategy
	opsPerMAC float64
	kernel    model.Kernel
	order     ordering
}

// String is the key's text, which names the run's spans, progress entry
// and timeline tracks: arch|benchmark|strategy|opsPerMAC (e.g.
// "SPADE-Sextans 1-1|pap|heur:MinTime Parallel|2"), then the kernel, the
// ordering and the planning model, each only where it is not the SpMM,
// original, simulated-arch default.
func (k runKey) String() string {
	return fmt.Sprintf("%s|%s|%v|%g", k.sim.Name, k.bench, k.strategy, k.opsPerMAC) + k.suffix()
}

// suffix is the key text's tail past opsPerMAC.
func (k runKey) suffix() string {
	var s string
	if k.kernel != model.KernelSpMM {
		s += "|" + k.kernel.String()
	}
	if k.order != original {
		s += "|" + string(k.order)
	}
	if k.plan != k.sim {
		s += "|plan=" + k.plan.Name
	}
	return s
}

// key canonicalizes c's architectures.
func (e *Env) key(c cell) (runKey, error) {
	sa, err := e.archPtr(c.arch)
	if err != nil {
		return runKey{}, err
	}
	plan := sa
	if c.plan != nil {
		if plan, err = e.archPtr(*c.plan); err != nil {
			return runKey{}, err
		}
	}
	if c.opsPerMAC == 0 {
		c.opsPerMAC = 2
	}
	return runKey{sim: sa, plan: plan, bench: c.bench.Short, strategy: c.strategy,
		opsPerMAC: c.opsPerMAC, kernel: c.kernel, order: c.order}, nil
}

// estimates returns the per-tile model estimates of k's planning model on
// benchmark b's grid: cached per (plan, benchmark, opsPerMAC, kernel) and
// shared by every strategy and simulated arch, under the text of the run
// key less those two (e.g. "SPADE-Sextans 4-4|pap|2"). A reordered cell's
// estimates are its own.
func (e *Env) estimates(k runKey, b gen.Benchmark) (*partition.Estimates, error) {
	cfg := k.plan.KernelConfig(k.opsPerMAC, k.kernel)
	if k.order != original {
		// The permuted matrix and its grid stay private to the run,
		// outside the matrix, grid, estimate and unit caches: the unit
		// cache is keyed on the grid pointer and would keep every variant
		// resident.
		m := e.Matrix(b)
		perm := reorder.Random(m.N, e.Seed)
		if k.order == bfsClustered {
			perm = reorder.BFSCluster(m)
		}
		m, err := reorder.Apply(m, perm)
		if err != nil {
			return nil, err
		}
		g, err := tile.Partition(m, k.plan.TileH, k.plan.TileW)
		if err != nil {
			return nil, err
		}
		return partition.NewEstimates(g, &cfg)
	}
	ek := runKey{sim: k.plan, plan: k.plan, bench: k.bench, opsPerMAC: k.opsPerMAC, kernel: k.kernel}
	return e.ests.Get(ek, func() (*partition.Estimates, error) {
		g, err := e.Grid(b, k.plan.TileH)
		if err != nil {
			return nil, err
		}
		sp := e.trace.Phase("estimate").Start(fmt.Sprintf("%s|%s|%g%s", k.plan.Name, k.bench, k.opsPerMAC, ek.suffix()))
		defer sp.End()
		return partition.NewEstimates(g, &cfg)
	})
}

// archPtr returns the canonical pointer for an arch value at the Env's
// tile size. Two cells carrying equal configurations observe the same
// pointer, so pointer-keyed caches (the run and unit caches) can hit
// across them.
func (e *Env) archPtr(a arch.Arch) (*arch.Arch, error) {
	a.TileH, a.TileW = e.TileSize(), e.TileSize()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&a); err != nil {
		return nil, err
	}
	return e.archs.Get(buf.String(), func() (*arch.Arch, error) {
		cp := a
		return &cp, nil
	})
}

// heuristics are the four HotTiles subproblems (Table II), in Figure 12's
// column order.
var heuristics = []partition.Heuristic{
	partition.MinTimeParallel, partition.MinTimeSerial,
	partition.MinByteParallel, partition.MinByteSerial,
}

// runOut is one cached simulated execution.
type runOut struct {
	Time      float64          // simulated seconds (including merge)
	Sim       *sim.Result      // full simulator statistics
	Part      partition.Result // the partitioning used
	Predicted float64          // the model's predicted runtime for this run
	HotFrac   float64          // the share of nonzeros assigned hot
}

// exec plans and simulates cell c (with its architectures' tile size
// overridden to the Env's) and caches the outcome. It is the one
// plan-and-simulate path of the studies.
func (e *Env) exec(c cell) (*runOut, error) {
	k, err := e.key(c)
	if err != nil {
		return nil, err
	}
	return e.runs.Get(k, func() (*runOut, error) {
		key := k.String()
		done := obs.StartProgress("exec " + key)
		defer done()
		t0 := time.Now()
		defer func() { execWallHist.ObserveSince(t0) }()
		es, err := e.estimates(k, c.bench)
		if err != nil {
			return nil, err
		}
		units := &e.units
		if k.order != original {
			units = nil // see estimates
		}
		sp := e.trace.Phase("exec").Start(key)
		defer sp.End()
		part, err := partition.Run(es, k.plan.KernelConfig(k.opsPerMAC, k.kernel), k.strategy, e.Seed)
		if err != nil {
			return nil, err
		}

		// The simulator must see the same arithmetic intensity the
		// partitioner planned for.
		sr := semiring.PlusTimes()
		sr.OpsPerMAC = k.opsPerMAC
		g := es.Grid
		sim1 := sp.Start("sim")
		r, err := sim.Run(g, part.Hot, k.sim, nil, sim.Options{
			Serial:         part.Serial,
			Kernel:         k.kernel,
			Semiring:       &sr,
			SkipFunctional: true,
			Timeline:       e.timeline,
			TimelineLabel:  key,
			Units:          units,
		})
		sim1.End()
		if err != nil {
			return nil, err
		}
		hot, frac := part.HotNNZ(g)
		sp.SetAttr("hotNNZ", fmt.Sprint(hot, frac))
		return &runOut{Time: r.Time, Sim: r, Part: part, Predicted: part.Predicted, HotFrac: frac}, nil
	})
}

// cellGrid is every study's shape: each base cell (complete but for its
// benchmark and, when strategies are given, its strategy) under each
// strategy, over a benchmark suite, fanned out once. The cells run
// concurrently; each writes only its own slot and every projection walks
// the slots in order, so the results are bit-identical to the serial
// evaluation.
type cellGrid struct {
	bases      []cell
	strategies []partition.Strategy
	suite      []gen.Benchmark
	runs       []*runOut
}

// grid runs every (base, strategy, benchmark) cell; with no strategies,
// each base runs its own.
func (e *Env) grid(bases []cell, suite []gen.Benchmark, strategies ...partition.Strategy) (*cellGrid, error) {
	rows := bases
	if len(strategies) > 0 {
		rows = make([]cell, 0, len(bases)*len(strategies))
		for _, c := range bases {
			for _, s := range strategies {
				c.strategy = s
				rows = append(rows, c)
			}
		}
	}
	g := &cellGrid{bases: bases, strategies: strategies, suite: suite, runs: make([]*runOut, len(rows)*len(suite))}
	if err := par.ForEachErr(len(g.runs), func(i int) error {
		c := rows[i/len(suite)]
		c.bench = suite[i%len(suite)]
		r, err := e.exec(c)
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", c.arch.Name, c.bench.Short, c.strategy, err)
		}
		g.runs[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// at returns the run of base ai on benchmark bi under strategy si (0 when
// the bases carry their own).
func (g *cellGrid) at(ai, bi, si int) *runOut {
	return g.runs[(ai*max(len(g.strategies), 1)+si)*len(g.suite)+bi]
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
