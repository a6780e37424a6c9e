package sim

import (
	"sync"

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

// execute performs the functional gSpMM into one output buffer: each row
// accumulates its cold nonzeros (untiled row order) and, separately, its
// hot nonzeros (tiled panel order), and the two partial sums are combined
// with the semiring's additive monoid, cold ⊕ hot.
//
// The tile loop fans out over the par pool one row panel at a time. Panels
// are row-disjoint (panel tr covers rows [tr·TileH, (tr+1)·TileH)), so a
// panel owns its rows. A panel whose tiles all belong to one pool
// accumulates straight into its output rows: the other pool's partial sum
// is the identity, and x ⊕ identity = x. (For plus-times that holds bit
// for bit: a sum started at +0 is never −0.) A mixed panel accumulates its
// hot tiles into a per-panel TileH×K scratch and adds that into its rows
// once its cold tiles are done. Every row therefore sees exactly the
// additions of a cold buffer, a hot buffer and a merge, in the same order,
// and the result is bit-identical for any worker count.
func execute(g *tile.Grid, hot []bool, din *dense.Matrix, sr semiring.Semiring) *dense.Matrix {
	k := din.K
	out := dense.NewFilled(g.N, k, sr.AddIdentity)
	par.ForEach(g.NumTR, func(tr int) {
		lo, hi := g.PanelStart[tr], g.PanelStart[tr+1]
		if lo == hi {
			return
		}
		mixed := false
		for _, h := range hot[lo+1 : hi] {
			if h != hot[lo] {
				mixed = true
				break
			}
		}
		if !mixed {
			for i := lo; i < hi; i++ {
				executeTile(g, i, din.Data, out.Data, 0, k, sr)
			}
			return
		}
		rlo, rhi := g.PanelRows(tr)
		n := (rhi - rlo) * k
		sp := panelScratch.Get().(*[]float64)
		if cap(*sp) < n {
			*sp = make([]float64, n)
		}
		scratch := (*sp)[:n]
		for x := range scratch {
			scratch[x] = sr.AddIdentity
		}
		for i := lo; i < hi; i++ {
			if hot[i] {
				executeTile(g, i, din.Data, scratch, rlo, k, sr)
			} else {
				executeTile(g, i, din.Data, out.Data, 0, k, sr)
			}
		}
		sr.AddRow(out.Data[rlo*k:rhi*k], scratch)
		panelScratch.Put(sp)
	})
	return out
}

// panelScratch holds the hot partial sums of one mixed panel while its
// worker runs it.
var panelScratch = sync.Pool{New: func() any { return new([]float64) }}

// executeTile accumulates tile i's nonzeros into buf, whose first row is
// output row base. The tile's nonzeros are (row, col)-sorted, so each run
// that shares a row goes to the semiring's run kernel in one call.
func executeTile(g *tile.Grid, i int, din, buf []float64, base, k int, sr semiring.Semiring) {
	rows, cols, vals := g.TileNonzeros(i)
	for j := 0; j < len(rows); {
		r := rows[j]
		e := j + 1
		for e < len(rows) && rows[e] == r {
			e++
		}
		o := (int(r) - base) * k
		sr.MulAddRun(buf[o:o+k], din, cols[j:e], vals[j:e])
		j = e
	}
}
