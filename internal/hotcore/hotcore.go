// Package hotcore implements the HotTiles preprocessing pipeline of the
// paper's Figure 7, as run on the host of the heterogeneous architecture,
// as explicit stages: (1) scan the matrix into tiles, (2) decide — feed
// the tiles to the hot and cold performance models and partition them
// with the HotTiles heuristics — and (3) generate the sparse-matrix
// sections in the compression format each worker type consumes (tiled
// formats for the hot streamers, untiled row-ordered formats for the cold
// workers). A plan (Prep) is the grid and the decision; the sections are a
// function of the two, built by Formats only where they are read. Stage
// wall-clock timings are recorded for the preprocessing-cost study
// (Figure 18).
package hotcore

import (
	"context"
	"fmt"
	"strconv"
	"time"
	"unsafe"

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
// are the HotTiles-specific overhead (scan, model and partitioning, and
// the format for the second worker type). The format stages stay zero
// until Formats runs.
type Timing struct {
	Scan        time.Duration // tiling + per-tile statistics
	Partition   time.Duration // per-tile model + heuristic partitioning
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

// Prep is a preprocessing plan: the tiling, the partitioning decision, the
// formats its two sections take, and stage timings.
type Prep struct {
	Grid      *tile.Grid
	Partition partition.Result

	// HotFormat is the hot workers' format (CSR adds per-panel-row pointers
	// to each tile), ColdFormat the cold workers' untiled one.
	HotFormat, ColdFormat model.SparseFormat

	Timing Timing
}

// HeldBytes is the memory a plan's arrays hold: the grid's tiles, panel
// index and tile-ordered nonzeros, and the assignment. A cache of decoded
// plans charges this against its budget; it is within a few hundred
// bytes of the plan's wire size.
func (p *Prep) HeldBytes() int64 {
	g := p.Grid
	return int64(cap(g.Tiles))*int64(unsafe.Sizeof(tile.Tile{})) + 8*int64(cap(g.PanelStart)) +
		4*int64(cap(g.Rows)) + 4*int64(cap(g.Cols)) + 8*int64(cap(g.Vals)) + int64(cap(p.Partition.Hot))
}

// Sections are a plan's per-worker-type formats, the output of Formats.
type Sections struct {
	// Hot is the tiled section for the hot workers (no blocks when no
	// tile is hot); Cold the untiled row-ordered section for the cold
	// workers (empty when everything is hot). ColdCSR is set instead of
	// Cold when the cold worker consumes CSR.
	Hot     *TiledMatrix
	Cold    *sparse.COO
	ColdCSR *sparse.CSR
}

// Strategy selects how PreprocessCtx assigns tiles (partition.Run).
type Strategy = partition.Strategy

// The partitioning strategies PreprocessCtx offers.
const (
	StrategyHotTiles = partition.HotTiles
	StrategyIUnaware = partition.IUnaware
	StrategyHotOnly  = partition.HotOnly
	StrategyColdOnly = partition.ColdOnly
)

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

// PreprocessCtx plans matrix m on architecture a: it validates both, then
// runs the scan (tiling and per-tile statistics) and Decide with
// o.Strategy. It builds no sections (Formats does). ctx is checked before
// each stage, so a caller-side timeout or a dropped daemon request
// abandons the pipeline between stages; a stage, once started, runs to
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
	cfg := a.KernelConfig(o.OpsPerMAC, o.Kernel)
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}

	// The request's span rides ctx (a nil-safe no-op when absent): each
	// stage closes a child span on the caller's span tree, so a daemon
	// post-mortem attributes preprocessing time stage by stage, and a
	// tracer with a debug logger turns each End into the stage's log
	// line. Span attributes are gated on the span: with no tracer attached
	// (the CLI fast path) they are never built, keeping preprocessing
	// allocation-free. Prep.Timing keeps its own clock pair because that
	// path has no span to read it from.
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	sp := obs.CtxSpan(ctx).Start("hotcore.scan")
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

	p, err := Decide(ctx, g, nil, cfg, o.Strategy, o.Seed)
	if err != nil {
		return nil, err
	}
	p.Timing.Scan = scan
	return p, nil
}

// Decide is the model-and-partition stage: it evaluates both worker
// types' per-tile model on g — unless es, g's estimates under cfg, are
// already in hand — and assigns the tiles with strategy s (seed feeds
// IUnaware). The plan takes its section formats from cfg's workers.
// Decide runs under the hotcore.partition span and records its cost as
// Timing.Partition.
func Decide(ctx context.Context, g *tile.Grid, es *partition.Estimates, cfg partition.Config, s Strategy, seed int64) (*Prep, error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("hotcore: preprocessing canceled: %w", cerr)
	}
	if es != nil && es.Grid != g {
		return nil, fmt.Errorf("hotcore: estimates are for another grid")
	}
	sp := obs.CtxSpan(ctx).Start("hotcore.partition")
	t0 := time.Now()
	var err error
	if es == nil {
		es, err = partition.NewEstimates(g, &cfg)
	}
	var res partition.Result
	if err == nil {
		res, err = partition.Run(es, cfg, s, seed)
	}
	if sp != nil && err == nil {
		sp.SetAttr("predicted", strconv.FormatFloat(res.Predicted, 'g', 6, 64))
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Prep{
		Grid:       g,
		Partition:  res,
		HotFormat:  cfg.Hot.Format,
		ColdFormat: cfg.Cold.Format,
		Timing:     Timing{Partition: time.Since(t0)},
	}, nil
}

// Formats is the format-generation stage: it builds p's cold (base)
// section and then its hot (extra) one, and records their costs in
// p.Timing. p's grid must be built or validated.
func Formats(p *Prep) *Sections {
	g, hot := p.Grid, p.Partition.Hot
	s := &Sections{}
	t0 := time.Now()
	s.Cold, s.ColdCSR = coldSection(g, hot, p.ColdFormat == model.FormatCSR)
	t1 := time.Now()
	s.Hot = hotSection(g, hot, p.HotFormat == model.FormatCSR)
	p.Timing.BaseFormat, p.Timing.ExtraFormat = t1.Sub(t0), time.Since(t1)
	return s
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
