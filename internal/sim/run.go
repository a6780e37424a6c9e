package sim

import (
	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/tile"
)

// Options configures a simulation run.
type Options struct {
	// Serial runs the cold pool to completion before the hot pool on a
	// shared output buffer (no merge); the default is parallel pools with
	// private buffers merged at the end (unless the architecture's atomic
	// engine removes the merge).
	Serial bool
	// Semiring selects the gSpMM algebra; the zero value means plain
	// arithmetic SpMM.
	Semiring *semiring.Semiring
	// SkipFunctional disables the functional execution (timing only), for
	// large parameter sweeps where the numeric output is not inspected.
	SkipFunctional bool
	// Kernel selects SpMM (zero value), SpMV (K = 1) or SDDMM.
	Kernel model.Kernel
	// Trace records the bandwidth timeline into Result.Trace.
	Trace bool
	// Timeline, when non-nil, records per-worker events (unit slices on the
	// simulated clock, idle instants, bandwidth-grant samples) onto the
	// timeline. TimelineLabel prefixes the per-worker track names so a sweep
	// keeps its runs apart. Independently, when obs.DeepTiming is on the run
	// feeds the sim.step.dt.ns histogram even without a timeline.
	Timeline      *obs.Timeline
	TimelineLabel string
	// Units, when non-nil, memoizes built unit pools across runs keyed on
	// (grid, assignment, pool geometry) — see UnitCache. Sweeps that
	// revisit a combination skip unit construction on the repeat runs.
	Units *UnitCache
}

// Result reports one simulated execution.
type Result struct {
	// Time is the end-to-end simulated runtime in seconds, including the
	// merge when one happens.
	Time float64
	// MergeTime is the Merger module's share of Time (zero for serial
	// execution, atomic-RMW architectures, and homogeneous runs).
	MergeTime float64

	// HotElapsed/ColdElapsed are each pool's busy span (start until its
	// last unit drained).
	HotElapsed, ColdElapsed float64
	// HotBytes/ColdBytes are main-memory bytes moved by each pool.
	HotBytes, ColdBytes float64
	// HotFlops/ColdFlops are the arithmetic operations each pool executed.
	HotFlops, ColdFlops float64

	// Output is the functional SpMM/SpMV result (nil when SkipFunctional or
	// for SDDMM).
	Output *dense.Matrix
	// SDDMM is the functional SDDMM result: one value per nonzero, aligned
	// with the grid's tile-ordered nonzero arrays (nil for other kernels).
	SDDMM []float64
	// Trace is the bandwidth timeline (only with Options.Trace). Pool 0 is
	// the cold pool, pool 1 the hot pool; for serial runs the hot segment
	// is appended after the cold one with shifted timestamps.
	Trace []TracePoint

	mergeBytes float64
}

// TotalBytes returns the run's total main-memory traffic, including the
// merger's.
func (r *Result) TotalBytes() float64 { return r.HotBytes + r.ColdBytes + r.mergeBytes }

// BandwidthUtil returns the average consumed bandwidth in bytes/s.
func (r *Result) BandwidthUtil() float64 {
	if r.Time <= 0 {
		return 0
	}
	return r.TotalBytes() / r.Time
}

// CacheLinesPerNNZ returns main-memory lines fetched per nonzero (the
// Table VII statistic) for a 64-byte line.
func (r *Result) CacheLinesPerNNZ(nnz int) float64 {
	if nnz == 0 {
		return 0
	}
	return r.TotalBytes() / 64 / float64(nnz)
}

// HotGFLOPs returns the hot pool's achieved GFLOP/s over its busy span.
func (r *Result) HotGFLOPs() float64 {
	if r.HotElapsed <= 0 {
		return 0
	}
	return r.HotFlops / r.HotElapsed / 1e9
}

// ColdGFLOPs returns the cold pool's achieved GFLOP/s over its busy span.
func (r *Result) ColdGFLOPs() float64 {
	if r.ColdElapsed <= 0 {
		return 0
	}
	return r.ColdFlops / r.ColdElapsed / 1e9
}

// Run simulates executing the partitioned SpMM on architecture a: the hot
// tiles on the hot pool (tiled traversal) and the rest on the cold pool
// (untiled chunked traversal), sharing the architecture's memory bandwidth.
// din must be N×K. The semiring's OpsPerMAC drives both the timing and the
// functional execution.
//
// Run draws a Runner from the package free list, so repeated calls — the
// sweep shape — reuse pool, cache-model, and engine scratch instead of
// reconstructing state per run. Results are bit-identical to a fresh
// construction (see Runner).
func Run(g *tile.Grid, hot []bool, a *arch.Arch, din *dense.Matrix, opts Options) (*Result, error) {
	r := acquireRunner()
	defer releaseRunner(r)
	res := &Result{}
	if err := r.RunInto(res, g, hot, a, din, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// executeSDDMM computes the sampled dense-dense product functionally: both
// factor matrices are din (U = V), matching the common attention/embedding
// use; values align with the grid's tile-ordered nonzeros. The loop splits
// over the par pool on tile-ordered nnz ranges — every nonzero writes only
// its own output slot, so the split is bit-identical to the serial loop.
func executeSDDMM(g *tile.Grid, din *dense.Matrix) []float64 {
	out := make([]float64, g.NNZ())
	par.Chunks(len(g.Vals), func(lo, hi int) {
		sddmmRange(g, din, out, lo, hi)
	})
	return out
}

// sddmmRange is the SDDMM inner loop over the grid's tile-ordered nonzero
// range [lo, hi).
func sddmmRange(g *tile.Grid, din *dense.Matrix, out []float64, lo, hi int) {
	k := din.K
	for i := lo; i < hi; i++ {
		ur := din.Data[int(g.Rows[i])*k : int(g.Rows[i])*k+k]
		vc := din.Data[int(g.Cols[i])*k : int(g.Cols[i])*k+k]
		dot := 0.0
		for j := 0; j < k; j++ {
			dot += ur[j] * vc[j]
		}
		out[i] = g.Vals[i] * dot
	}
}

// execute performs the functional gSpMM: cold section in untiled row order,
// hot section in tiled panel order, accumulated into per-pool buffers that
// are merged with the semiring's additive monoid.
//
// The tile loop fans out over the par pool one row panel at a time. Panels
// are row-disjoint (panel tr covers rows [tr·TileH, (tr+1)·TileH)) and each
// panel walks its tiles in the serial (TR, TC) order, so every output row —
// in both buffers — accumulates in exactly the serial floating-point order:
// the result is bit-identical for any worker count, and the per-element
// GMerge below is order-independent anyway.
func execute(g *tile.Grid, hot []bool, din *dense.Matrix, sr semiring.Semiring) (*dense.Matrix, error) {
	k := din.K
	coldBuf := dense.NewFilled(g.N, k, sr.AddIdentity)
	hotBuf := dense.NewFilled(g.N, k, sr.AddIdentity)
	par.ForEach(g.NumTR, func(tr int) {
		for i := g.PanelStart[tr]; i < g.PanelStart[tr+1]; i++ {
			buf := coldBuf
			if hot[i] {
				buf = hotBuf
			}
			rows, cols, vals := g.TileNonzeros(i)
			executeTile(rows, cols, vals, din, buf, sr)
		}
	})
	if err := dense.GMerge(coldBuf, hotBuf, sr); err != nil {
		return nil, err
	}
	return coldBuf, nil
}

// executeTile accumulates one tile's nonzeros into its pool buffer, one
// K-wide dense row per nonzero through the semiring's row kernel.
func executeTile(rows, cols []int32, vals []float64, din, buf *dense.Matrix, sr semiring.Semiring) {
	k := din.K
	for j := range rows {
		in := din.Data[int(cols[j])*k : int(cols[j])*k+k]
		out := buf.Data[int(rows[j])*k : int(rows[j])*k+k]
		sr.MulAddRow(out, in, vals[j])
	}
}
