package model

import (
	"math"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/tile"
)

// modelEstimates counts per-tile model evaluations (one per (tile, worker)
// pair through EstimateGrid), the dominant analytical-model cost.
// estimateLatency records how long each evaluation takes — but only under
// obs.DeepTiming, since two clock reads per tile would otherwise tax the
// partitioner's hottest loop for nobody's benefit.
var (
	modelEstimates  = obs.NewCounter("model.estimates")
	estimateLatency = obs.NewHistogram("model.estimate.ns")
)

// Estimate is the model's prediction for one (tile, worker-type) pair: the
// tile's standalone execution time on one worker of that type (th_i / tc_i
// in §V-A) and its main-memory traffic (bh_i / bc_i).
type Estimate struct {
	Time  float64 // seconds, ignoring bandwidth contention
	Bytes float64 // bytes read+written from main memory
}

// Params bundles the workload parameters shared by all estimates.
type Params struct {
	K         int     // dense matrix columns (1 for SpMV)
	OpsPerMAC float64 // 2 for plain SpMM; gSpMM semirings scale it
	Kernel    Kernel  // zero value is KernelSpMM
}

// estimator caches the (worker, grid, params) invariants of the per-tile
// model evaluation. EstimateGrid calls the model once per (tile, worker)
// pair — the dominant analytical-model cost — so everything derivable from
// the worker, grid geometry, and params alone is hoisted out of the inner
// loop. Hoisted expressions are evaluated exactly as the per-tile code did,
// so estimates stay bit-identical.
type estimator struct {
	w        *Worker
	g        *tile.Grid
	p        Params
	rowBytes float64 // p.K * w.ElemBytes
	lastH    int     // height of the last (possibly short) row panel
	lastW    int     // width of the last (possibly short) tile column
}

func newEstimator(w *Worker, g *tile.Grid, p Params) estimator {
	return estimator{
		w: w, g: g, p: p,
		rowBytes: float64(p.K * w.ElemBytes),
		lastH:    g.N - (g.NumTR-1)*g.TileH,
		lastW:    g.N - (g.NumTC-1)*g.TileW,
	}
}

// panelHeight returns the row count of panel tr (only the last panel can be
// short, because PanelRows clips at N).
func (e *estimator) panelHeight(tr int) int {
	if tr == e.g.NumTR-1 {
		return e.lastH
	}
	return e.g.TileH
}

// tileWidth returns the column count of tile column tc (only the last
// column can be short).
func (e *estimator) tileWidth(tc int) int {
	if tc == e.g.NumTC-1 {
		return e.lastW
	}
	return e.g.TileW
}

// taskBytes returns the five tasks' main-memory byte counts for one tile
// under the worker's reuse configuration (Table I), using the maximum-reuse
// assumption for inter-tile reuse (charged zero here; see PanelAdjust).
func (e *estimator) taskBytes(t *tile.Tile) [numTasks]float64 {
	w := e.w
	var b [numTasks]float64
	nnz := t.NNZ()
	panelH := e.panelHeight(t.TR)
	tileW := e.tileWidth(t.TC)

	b[TaskReadA] = float64(SparseBytesAccessed(w.Format, nnz, panelH, w.IdxBytes, w.ElemBytes))
	b[TaskReadDin] = float64(DenseRowsAccessed(w.DinReuse, tileW, t.UniqCols, nnz)) * e.rowBytes
	doutRows := float64(DenseRowsAccessed(w.DoutReuse, panelH, t.UniqRows, nnz))
	b[TaskReadDout] = doutRows * e.rowBytes
	if e.p.Kernel == KernelSDDMM {
		// SDDMM's output is sparse: one scalar per nonzero, no dense rows
		// written back.
		b[TaskWriteDout] = float64(nnz * w.ElemBytes)
	} else {
		b[TaskWriteDout] = doutRows * e.rowBytes
	}
	b[TaskCompute] = 0
	return b
}

// combine folds per-task times through the worker's overlap groups: max
// within a group, sum across groups (§IV-B).
func combine(w *Worker, times [numTasks]float64) float64 {
	total := 0.0
	for _, group := range w.OverlapGroups {
		m := 0.0
		for _, t := range group {
			if times[t] > m {
				m = times[t]
			}
		}
		total += m
	}
	return total
}

// taskBytes is the single-tile convenience form of estimator.taskBytes.
func taskBytes(w *Worker, t *tile.Tile, g *tile.Grid, p Params) [numTasks]float64 {
	e := newEstimator(w, g, p)
	return e.taskBytes(t)
}

// estimateTile is EstimateTile with the invariants already hoisted.
func (e *estimator) estimateTile(t *tile.Tile) Estimate {
	bytes := e.taskBytes(t)
	var times [numTasks]float64
	total := 0.0
	for task, by := range bytes {
		times[task] = by * e.w.VisLatPerByte
		total += by
	}
	times[TaskCompute] = e.w.ComputeTime(t.NNZ(), e.p.K, e.p.OpsPerMAC)
	return Estimate{Time: combine(e.w, times), Bytes: total}
}

// EstimateTile predicts the execution time and memory traffic of tile t on
// a single worker of type w (paper §IV-A/B). Bandwidth contention is
// deliberately ignored; the partitioner accounts for it via the bytes.
func EstimateTile(w *Worker, t *tile.Tile, g *tile.Grid, p Params) Estimate {
	e := newEstimator(w, g, p)
	return e.estimateTile(t)
}

// EstimateGrid evaluates EstimateTile for every tile of the grid, returning
// a slice indexed like g.Tiles. Tiles are evaluated on the shared worker
// pool; each writes only its own slot, so the result is bit-identical to a
// serial evaluation.
func EstimateGrid(w *Worker, g *tile.Grid, p Params) []Estimate {
	modelEstimates.Add(int64(len(g.Tiles)))
	out := make([]Estimate, len(g.Tiles))
	deep := obs.DeepTiming()
	par.Chunks(len(g.Tiles), func(lo, hi int) {
		e := newEstimator(w, g, p)
		if !deep {
			for i := lo; i < hi; i++ {
				out[i] = e.estimateTile(&g.Tiles[i])
			}
			return
		}
		// Deep timing: per-tile wall clock into a chunk-local histogram
		// (plain integer adds), folded into the shared one per chunk.
		var lh obs.LocalHist
		for i := lo; i < hi; i++ {
			t0 := obs.Now()
			out[i] = e.estimateTile(&g.Tiles[i])
			lh.Observe(obs.SinceNS(t0))
		}
		estimateLatency.Merge(&lh)
	})
	return out
}

// PanelAdjust returns the extra Estimate a worker type incurs in row panel
// tr beyond the maximum-reuse assumption (paper §IV-C): the first tile of
// its type in the panel cannot reuse Dout rows from a previous tile.
// keep selects which tiles of the panel (by position) are assigned to this
// worker type; a nil keep means all of them. The readjustment charges:
//
//   - tiled streamers (Dout inter-tile, Figure 6(b)): one full stream-in and
//     stream-out of the panel's tile_height Dout rows;
//   - untiled workers (Dout inter-tile, Figure 6(a)): one read and one write
//     of each distinct r_id among the worker's assigned nonzeros.
//
// Workers whose Dout reuse is not inter-tile need no adjustment.
func PanelAdjust(w *Worker, g *tile.Grid, tr int, keep func(i int) bool, p Params) Estimate {
	var a Adjuster
	return a.PanelAdjust(w, g, tr, keep, p)
}

// Adjuster evaluates PanelAdjust across many panels while reusing one
// row-membership scratch buffer (tile.PanelUniqRowsScratch). The
// partitioner's readjustment loop visits every panel for every candidate
// assignment, so the per-panel buffer allocation is on its hot path; a
// zero-value Adjuster is ready to use and each call is bit-identical to the
// free function.
type Adjuster struct {
	seen []bool
}

// PanelAdjust is the free function PanelAdjust over the Adjuster's scratch.
func (a *Adjuster) PanelAdjust(w *Worker, g *tile.Grid, tr int, keep func(i int) bool, p Params) Estimate {
	if w.DoutReuse != ReuseInter {
		return Estimate{}
	}
	any := false
	if keep == nil {
		any = len(g.Panel(tr)) > 0
	} else {
		for i := range g.Panel(tr) {
			if keep(i) {
				any = true
				break
			}
		}
	}
	if !any {
		return Estimate{}
	}
	var rows int
	if w.TiledTraversal {
		lo, hi := g.PanelRows(tr)
		rows = hi - lo
	} else {
		rows, a.seen = g.PanelUniqRowsScratch(tr, keep, a.seen)
	}
	// SpMM read-modify-writes the panel's Dout rows once; SDDMM only reads
	// its U rows (the sparse output is charged per tile).
	passes := 2
	if p.Kernel == KernelSDDMM {
		passes = 1
	}
	bytes := float64(passes*rows) * float64(p.K*w.ElemBytes)
	return Estimate{Time: bytes * w.VisLatPerByte, Bytes: bytes}
}

// expectedUniq returns the expected number of distinct ids hit by nnz
// uniformly random draws over dim slots: dim·(1 − (1 − 1/dim)^nnz). It is
// the uniform-distribution assumption the IMH-unaware model makes (§III-B,
// following AESPA).
func expectedUniq(dim int, nnz float64) float64 {
	if dim <= 0 {
		return 0
	}
	d := float64(dim)
	return d * (1 - math.Pow(1-1/d, nnz))
}

// WholeMatrix predicts a single worker's execution time and traffic for the
// entire matrix assuming uniformly distributed nonzeros — the holistic,
// IMH-unaware estimate of §III-B. n and nnz describe the matrix; tileH and
// tileW the tiling the worker would use.
func WholeMatrix(w *Worker, n, nnz, tileH, tileW int, p Params) Estimate {
	numTR := (n + tileH - 1) / tileH
	numTC := (n + tileW - 1) / tileW
	numTiles := float64(numTR) * float64(numTC)
	nnzPerTile := float64(nnz) / numTiles
	rowBytes := float64(p.K * w.ElemBytes)

	var b [numTasks]float64
	b[TaskReadA] = float64(SparseBytesAccessed(w.Format, nnz, n, w.IdxBytes, w.ElemBytes))

	switch w.DinReuse {
	case ReuseNone:
		b[TaskReadDin] = float64(nnz) * rowBytes
	case ReuseIntraStream:
		b[TaskReadDin] = numTiles * float64(tileW) * rowBytes
	case ReuseIntraDemand:
		b[TaskReadDin] = numTiles * expectedUniq(tileW, nnzPerTile) * rowBytes
	case ReuseInter:
		// One pass over Din per row panel under maximum inter-tile reuse.
		b[TaskReadDin] = float64(numTR) * float64(n) * rowBytes
	}

	var doutRows float64
	switch w.DoutReuse {
	case ReuseNone:
		doutRows = float64(nnz)
	case ReuseIntraStream:
		doutRows = numTiles * float64(tileH)
	case ReuseIntraDemand:
		doutRows = numTiles * expectedUniq(tileH, nnzPerTile)
	case ReuseInter:
		// Each panel touches its tile_height rows once: N rows total.
		doutRows = float64(n)
	}
	b[TaskReadDout] = doutRows * rowBytes
	if p.Kernel == KernelSDDMM {
		b[TaskWriteDout] = float64(nnz * w.ElemBytes)
	} else {
		b[TaskWriteDout] = doutRows * rowBytes
	}

	var times [numTasks]float64
	total := 0.0
	for task, by := range b {
		times[task] = by * w.VisLatPerByte
		total += by
	}
	times[TaskCompute] = w.ComputeTime(nnz, p.K, p.OpsPerMAC)
	return Estimate{Time: combine(w, times), Bytes: total}
}
