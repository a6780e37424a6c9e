// Package hotcore implements the HotTiles preprocessing pipeline of the
// paper's Figure 7, as run on the host of the heterogeneous architecture:
// (1) scan the matrix into tiles and feed them to the hot and cold
// performance models, (2) partition the tiles with the HotTiles heuristics,
// and (3) generate the sparse-matrix sections in the compression format
// each worker type consumes (tiled formats for the hot streamers, untiled
// row-ordered formats for the cold workers). Stage wall-clock timings are
// recorded for the preprocessing-cost study (Figure 18).
package hotcore

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// TileBlock is one tile of a tiled sparse format: its grid coordinates and
// its nonzeros in (row, col) order with global indices.
type TileBlock struct {
	TR, TC int
	Rows   []int32
	Cols   []int32
	Vals   []float64
}

// TiledMatrix is the hot workers' format: the assigned tiles in panel-major
// order, ready for a Figure 6(b) traversal. When CSR is true each block
// additionally carries a per-panel-row pointer array.
type TiledMatrix struct {
	N            int
	TileH, TileW int
	CSR          bool
	Blocks       []TileBlock
	// RowPtr[b] is the CSR row-pointer array of Blocks[b] over its panel's
	// rows (length panelHeight+1, local row ids); nil for COO.
	RowPtr [][]int64
}

// NNZ reports the tiled format's total nonzeros.
func (t *TiledMatrix) NNZ() int {
	n := 0
	for i := range t.Blocks {
		n += len(t.Blocks[i].Vals)
	}
	return n
}

// Timing is the per-stage preprocessing cost breakdown of Figure 18.
// BaseFormat is the cost any accelerator (homogeneous included) pays to
// convert MatrixMarket input into its operating format; the other stages
// are the HotTiles-specific overhead (scan+model, partitioning, and the
// format for the second worker type).
type Timing struct {
	Scan        time.Duration // tiling + per-tile statistics + model
	Partition   time.Duration // heuristic partitioning
	BaseFormat  time.Duration // format generation for one worker type
	ExtraFormat time.Duration // format generation for the second worker type
}

// Total returns the end-to-end preprocessing time.
func (t Timing) Total() time.Duration {
	return t.Scan + t.Partition + t.BaseFormat + t.ExtraFormat
}

// Overhead returns the HotTiles-specific share of preprocessing (everything
// beyond the single-format cost a homogeneous accelerator already pays).
func (t Timing) Overhead() time.Duration {
	return t.Scan + t.Partition + t.ExtraFormat
}

// Prep is the output of the preprocessing pipeline: the tiling, the
// partitioning decision, the two per-worker-type formats, and stage
// timings.
type Prep struct {
	Grid      *tile.Grid
	Partition partition.Result

	// Hot is the tiled section for the hot workers (nil when no tile is
	// hot); Cold the untiled row-ordered section for the cold workers
	// (empty when everything is hot). ColdCSR is set instead of Cold when
	// the cold worker consumes CSR.
	Hot     *TiledMatrix
	Cold    *sparse.COO
	ColdCSR *sparse.CSR

	Timing Timing
}

// Strategy selects how PreprocessCtx assigns tiles.
type Strategy int

const (
	// StrategyHotTiles runs the full four-heuristic HotTiles method.
	StrategyHotTiles Strategy = iota
	// StrategyIUnaware runs the IMH-unaware baseline of §III-B.
	StrategyIUnaware
	// StrategyHotOnly and StrategyColdOnly are the homogeneous executions.
	StrategyHotOnly
	StrategyColdOnly
)

func (s Strategy) String() string {
	switch s {
	case StrategyHotTiles:
		return "HotTiles"
	case StrategyIUnaware:
		return "IUnaware"
	case StrategyHotOnly:
		return "HotOnly"
	case StrategyColdOnly:
		return "ColdOnly"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures the preprocessing pipeline beyond the plain-SpMM
// defaults.
type Options struct {
	Strategy Strategy
	// OpsPerMAC carries the semiring's arithmetic-intensity factor
	// (0 means the plain SpMM value of 2).
	OpsPerMAC float64
	// Kernel selects SpMM (zero value), SpMV or SDDMM (paper §X).
	Kernel model.Kernel
	// Seed feeds IUnaware's random assignment.
	Seed int64
}

// PreprocessCtx runs the Figure 7 pipeline for matrix m on architecture a:
// tiling, the per-tile model, partitioning with o.Strategy, and the
// per-worker-type formats. ctx is checked at every stage boundary (scan, partition, each format generation), so a
// caller-side timeout or a dropped daemon request abandons the pipeline
// between stages rather than running it to completion. Cancellation
// granularity is one stage — an individual stage, once started, runs to
// its end on the par pool.
func PreprocessCtx(ctx context.Context, m *sparse.COO, a *arch.Arch, o Options) (*Prep, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if o.OpsPerMAC == 0 {
		o.OpsPerMAC = 2
	}
	strategy := o.Strategy
	seed := o.Seed
	cfg := a.Config(o.OpsPerMAC)
	cfg.Params.Kernel = o.Kernel
	if o.Kernel == model.KernelSpMV {
		cfg.Params.K = 1
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}

	// The request's span rides ctx (a nil-safe no-op when absent): each
	// stage boundary closes a child span on the caller's span tree, so a
	// daemon post-mortem attributes preprocessing time stage by stage, and
	// a tracer with a debug logger turns each End into the stage's log
	// line. Span attributes are gated on the span: with no tracer attached
	// (the CLI fast path) they are never built, keeping preprocessing
	// allocation-free. Prep.Timing keeps its own clock pair because that
	// path has no span to read it from.
	parent := obs.CtxSpan(ctx)

	// Stage 1: matrix scan — tiling and per-tile statistics.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp := parent.Start("hotcore.scan")
	if sp != nil {
		sp.SetAttr("nnz", strconv.Itoa(m.NNZ()))
	}
	t0 := time.Now()
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if sp != nil && err == nil {
		sp.SetAttr("tiles", strconv.Itoa(len(g.Tiles)))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	scan := time.Since(t0)

	// Stage 2: partitioning heuristic.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp = parent.Start("hotcore.partition")
	t0 = time.Now()
	var res partition.Result
	switch strategy {
	case StrategyHotTiles:
		res, err = partition.HotTiles(g, cfg)
	case StrategyIUnaware:
		res, err = partition.IUnaware(g, cfg, seed)
	case StrategyHotOnly:
		hot := partition.AllHot(g)
		var pred float64
		var tot partition.Totals
		pred, tot, err = partition.Predict(g, &cfg, hot, false)
		res = partition.Result{Hot: hot, Predicted: pred, Totals: tot}
	case StrategyColdOnly:
		cold := partition.AllCold(g)
		var pred float64
		var tot partition.Totals
		pred, tot, err = partition.Predict(g, &cfg, cold, false)
		res = partition.Result{Hot: cold, Predicted: pred, Totals: tot}
	default:
		sp.End()
		return nil, fmt.Errorf("hotcore: unknown strategy %d", int(strategy))
	}
	if sp != nil && err == nil {
		sp.SetAttr("predicted", strconv.FormatFloat(res.Predicted, 'g', 6, 64))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	part := time.Since(t0)

	p := &Prep{Grid: g, Partition: res}
	p.Timing.Scan = scan
	p.Timing.Partition = part

	// Stage 3a: cold (base) format — the untiled row-ordered section.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp = parent.Start("hotcore.baseformat")
	t0 = time.Now()
	p.Cold, p.ColdCSR = coldSection(g, res.Hot, a.Cold.Format == model.FormatCSR)
	sp.End()
	p.Timing.BaseFormat = time.Since(t0)

	// Stage 3b: hot (extra) format — the tiled section.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp = parent.Start("hotcore.extraformat")
	t0 = time.Now()
	p.Hot = hotSection(g, res.Hot, a.Hot.Format == model.FormatCSR)
	sp.End()
	p.Timing.ExtraFormat = time.Since(t0)

	return p, nil
}

// coldSection gathers the nonzeros of the non-hot tiles in row-major
// order (the untiled traversal of Figure 6(a)): as CSR when csr is set,
// else as COO. It is one stable scatter by row (sparse.Scatter, DESIGN.md
// §9) over the grid's tile-ordered nonzeros, whose chunks walk their tiles
// and skip the hot ones. Ordering argument: the grid is sorted by (panel,
// tile column, row, col) and a row lives in one panel, whose tiles cover
// ascending, disjoint column ranges, so each row's columns arrive
// ascending: the order a stable row-major sort of the same nonzeros
// gives, without the sort.
func coldSection(g *tile.Grid, hot []bool, csr bool) (*sparse.COO, *sparse.CSR) {
	nnz := 0
	for i := range g.Tiles {
		if !hot[i] {
			nnz += g.Tiles[i].NNZ()
		}
	}
	var rows []int32
	if !csr {
		rows = make([]int32, nnz)
	}
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	// The row ids are in range on a built or validated grid: no error.
	ptr, _ := sparse.Scatter(g.NNZ(), g.N, func(lo, hi int, hist []int64) error {
		for ti := g.TileOf(lo); lo < hi; ti++ {
			end := min(g.Tiles[ti].End, hi)
			if !hot[ti] {
				for _, r := range g.Rows[lo:end] {
					hist[r]++
				}
			}
			lo = end
		}
		return nil
	}, func(lo, hi int, next []int64) {
		for ti := g.TileOf(lo); lo < hi; ti++ {
			end := min(g.Tiles[ti].End, hi)
			if !hot[ti] {
				for j := lo; j < end; j++ {
					r := g.Rows[j]
					o := next[r]
					next[r]++
					if rows != nil {
						rows[o] = r
					}
					cols[o] = g.Cols[j]
					vals[o] = g.Vals[j]
				}
			}
			lo = end
		}
	})
	if !csr {
		return &sparse.COO{N: g.N, Rows: rows, Cols: cols, Vals: vals}, nil
	}
	return nil, &sparse.CSR{N: g.N, RowPtr: ptr, Cols: cols, Vals: vals}
}

// hotSection gathers the hot tiles into the tiled format, panel-major.
// Each block's nonzeros are views of the grid's tile span, capped at the
// span's end so an append to a block can never write into the grid.
func hotSection(g *tile.Grid, hot []bool, csr bool) *TiledMatrix {
	t := &TiledMatrix{N: g.N, TileH: g.TileH, TileW: g.TileW, CSR: csr}
	for i := range g.Tiles {
		if !hot[i] {
			continue
		}
		tl := &g.Tiles[i]
		lo, hi := tl.Start, tl.End
		t.Blocks = append(t.Blocks, TileBlock{
			TR:   tl.TR,
			TC:   tl.TC,
			Rows: g.Rows[lo:hi:hi],
			Cols: g.Cols[lo:hi:hi],
			Vals: g.Vals[lo:hi:hi],
		})
		if csr {
			plo, phi := g.PanelRows(tl.TR)
			ptr := make([]int64, phi-plo+1)
			for _, r := range g.Rows[lo:hi] {
				ptr[int(r)-plo+1]++
			}
			for j := 0; j < len(ptr)-1; j++ {
				ptr[j+1] += ptr[j]
			}
			t.RowPtr = append(t.RowPtr, ptr)
		} else {
			t.RowPtr = append(t.RowPtr, nil)
		}
	}
	return t
}

// Validate checks that the preprocessing output partitions the matrix: the
// hot and cold sections together hold exactly the grid's nonzeros. It must
// never panic, whatever the field values, so every invariant is checked
// before it is relied on for indexing or division. ReadPlan runs it on
// every load, after rebuilding the sections from a decoded grid.
func (p *Prep) Validate() error {
	if p.Hot == nil {
		return fmt.Errorf("hotcore: plan missing hot section")
	}
	if len(p.Hot.Blocks) > 0 && (p.Hot.TileH <= 0 || p.Hot.TileW <= 0) {
		return fmt.Errorf("hotcore: hot section tile geometry %dx%d invalid",
			p.Hot.TileH, p.Hot.TileW)
	}
	if len(p.Hot.RowPtr) != len(p.Hot.Blocks) {
		return fmt.Errorf("hotcore: hot section has %d row-pointer arrays for %d blocks",
			len(p.Hot.RowPtr), len(p.Hot.Blocks))
	}
	coldNNZ := 0
	switch {
	case p.Cold != nil:
		if err := p.Cold.Validate(); err != nil {
			return fmt.Errorf("hotcore: cold section: %w", err)
		}
		coldNNZ = p.Cold.NNZ()
	case p.ColdCSR != nil:
		if err := p.ColdCSR.Validate(); err != nil {
			return fmt.Errorf("hotcore: cold CSR section: %w", err)
		}
		coldNNZ = p.ColdCSR.NNZ()
	}
	if got := coldNNZ + p.Hot.NNZ(); got != p.Grid.NNZ() {
		return fmt.Errorf("hotcore: sections hold %d nonzeros, grid has %d", got, p.Grid.NNZ())
	}
	for b := range p.Hot.Blocks {
		blk := &p.Hot.Blocks[b]
		if len(blk.Cols) != len(blk.Rows) || len(blk.Vals) != len(blk.Rows) {
			return fmt.Errorf("hotcore: hot block %d ragged: rows=%d cols=%d vals=%d",
				b, len(blk.Rows), len(blk.Cols), len(blk.Vals))
		}
		if p.Hot.CSR {
			ptr := p.Hot.RowPtr[b]
			if len(ptr) == 0 || ptr[len(ptr)-1] != int64(len(blk.Vals)) {
				return fmt.Errorf("hotcore: hot block %d CSR pointers inconsistent", b)
			}
		}
		for i, r := range blk.Rows {
			if int(r)/p.Hot.TileH != blk.TR || int(blk.Cols[i])/p.Hot.TileW != blk.TC {
				return fmt.Errorf("hotcore: hot block %d nonzero %d outside tile", b, i)
			}
		}
	}
	return nil
}
