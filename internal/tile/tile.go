// Package tile partitions a sparse matrix into a grid of tiles and computes
// the per-tile statistics the HotTiles analytical model consumes (paper
// §IV): nonzero count, number of unique row ids (tile_uniq_rids) and unique
// column ids (tile_uniq_cids). Tiles are grouped into row panels —
// horizontal stripes of tile_height rows — because both the tiled traversal
// (Figure 6(b)) and the inter-tile reuse accounting operate panel by panel.
package tile

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// Tiling observability: grids built and non-empty tiles materialized.
var (
	gridsBuilt       = obs.NewCounter("tile.grids")
	tilesPartitioned = obs.NewCounter("tile.partitioned")
)

// Tile is one non-empty tile of the grid. Its nonzeros live in the owning
// Grid's tile-ordered arrays at [Start, End).
type Tile struct {
	TR, TC     int // tile row (panel index) and tile column
	Start, End int // span in Grid.Rows/Cols/Vals
	UniqRows   int // distinct row ids among the tile's nonzeros
	UniqCols   int // distinct column ids among the tile's nonzeros
}

// NNZ reports the tile's nonzero count.
func (t *Tile) NNZ() int { return t.End - t.Start }

// Grid is a tiling of a sparse matrix. Empty tiles are not materialized
// (the paper eliminates them during preprocessing, §IX-D). Nonzeros are
// stored twice conceptually: the original row-major matrix (for untiled
// traversals) is retained by the caller; the Grid owns a tile-ordered copy,
// sorted by (panel, tile column, row, col) — the order of Figure 6(b).
type Grid struct {
	N            int
	TileH, TileW int
	NumTR, NumTC int

	Tiles []Tile // non-empty tiles, ordered by (TR, TC)
	// PanelStart[p] is the index in Tiles of panel p's first tile;
	// PanelStart[NumTR] == len(Tiles).
	PanelStart []int

	// Tile-ordered nonzero arrays.
	Rows []int32
	Cols []int32
	Vals []float64

	// Lazily built row-major view (RowMajor). Unexported so gob round trips
	// (hotcore plans) skip it and rebuild on demand.
	rmOnce sync.Once
	rmKeys []uint64
	rmTile []int32
}

// Partition tiles a row-major matrix m into tileH×tileW tiles.
func Partition(m *sparse.COO, tileH, tileW int) (*Grid, error) {
	if tileH <= 0 || tileW <= 0 {
		return nil, fmt.Errorf("tile: non-positive tile size %dx%d", tileH, tileW)
	}
	g := &Grid{
		N:     m.N,
		TileH: tileH,
		TileW: tileW,
		NumTR: (m.N + tileH - 1) / tileH,
		NumTC: (m.N + tileW - 1) / tileW,
		Rows:  make([]int32, m.NNZ()),
		Cols:  make([]int32, m.NNZ()),
		Vals:  make([]float64, m.NNZ()),
	}
	g.PanelStart = make([]int, g.NumTR+1)

	// Counting sort nonzeros into (panel, tile column) buckets. The input is
	// row-major, so within a bucket entries arrive already ordered by
	// (row, col) — exactly the intra-tile order of a tiled row-ordered
	// traversal. Coordinates are validated here, before they index any
	// bucket: a malformed input (e.g. a MatrixMarket file with entries
	// outside the declared dimensions) must surface as an error, not an
	// index-out-of-range panic.
	nbuckets := g.NumTR * g.NumTC
	counts := make([]int, nbuckets+1)
	nnz := m.NNZ()
	if tileH&(tileH-1) == 0 && tileW&(tileW-1) == 0 {
		// Power-of-two tiles — the TileSize default and every benchmark
		// configuration — map to buckets with shifts instead of two integer
		// divisions per nonzero. Identical mapping, and the loop bodies are
		// spelled out (no per-nonzero closure call) because these two loops
		// sit on the sweep hot path.
		hs := uint(bits.TrailingZeros(uint(tileH)))
		ws := uint(bits.TrailingZeros(uint(tileW)))
		numTC := g.NumTC
		for i := 0; i < nnz; i++ {
			r, c := m.Rows[i], m.Cols[i]
			if r < 0 || int(r) >= m.N || c < 0 || int(c) >= m.N {
				return nil, fmt.Errorf("tile: nonzero %d at (%d, %d) outside the %dx%d matrix", i, r, c, m.N, m.N)
			}
			counts[(int(r)>>hs)*numTC+int(c)>>ws+1]++
		}
		for b := 0; b < nbuckets; b++ {
			counts[b+1] += counts[b]
		}
		offsets := append([]int(nil), counts[:nbuckets]...)
		for i := 0; i < nnz; i++ {
			b := (int(m.Rows[i])>>hs)*numTC + int(m.Cols[i])>>ws
			o := offsets[b]
			offsets[b]++
			g.Rows[o] = m.Rows[i]
			g.Cols[o] = m.Cols[i]
			g.Vals[o] = m.Vals[i]
		}
	} else {
		for i := 0; i < nnz; i++ {
			r, c := m.Rows[i], m.Cols[i]
			if r < 0 || int(r) >= m.N || c < 0 || int(c) >= m.N {
				return nil, fmt.Errorf("tile: nonzero %d at (%d, %d) outside the %dx%d matrix", i, r, c, m.N, m.N)
			}
			counts[(int(r)/tileH)*g.NumTC+int(c)/tileW+1]++
		}
		for b := 0; b < nbuckets; b++ {
			counts[b+1] += counts[b]
		}
		offsets := append([]int(nil), counts[:nbuckets]...)
		for i := 0; i < nnz; i++ {
			b := (int(m.Rows[i])/tileH)*g.NumTC + int(m.Cols[i])/tileW
			o := offsets[b]
			offsets[b]++
			g.Rows[o] = m.Rows[i]
			g.Cols[o] = m.Cols[i]
			g.Vals[o] = m.Vals[i]
		}
	}

	// Materialize non-empty tiles, then compute the per-tile statistics on
	// the worker pool: the UniqCols sort dominates tiling time and each
	// tile's stats are independent, so every tile writes only its own
	// fields and the result matches the serial evaluation bit for bit.
	for tr := 0; tr < g.NumTR; tr++ {
		g.PanelStart[tr] = len(g.Tiles)
		for tc := 0; tc < g.NumTC; tc++ {
			b := tr*g.NumTC + tc
			start, end := counts[b], counts[b+1]
			if start == end {
				continue
			}
			g.Tiles = append(g.Tiles, Tile{TR: tr, TC: tc, Start: start, End: end})
		}
	}
	g.PanelStart[g.NumTR] = len(g.Tiles)
	gridsBuilt.Inc()
	tilesPartitioned.Add(int64(len(g.Tiles)))
	par.Chunks(len(g.Tiles), func(lo, hi int) {
		var scratch, aux []int32
		for ti := lo; ti < hi; ti++ {
			t := &g.Tiles[ti]
			t.UniqRows = countRuns(g.Rows[t.Start:t.End])
			scratch = append(scratch[:0], g.Cols[t.Start:t.End]...)
			aux = sortInt32(scratch, aux)
			t.UniqCols = countRuns(scratch)
		}
	})
	return g, nil
}

// sortInt32 sorts s (non-negative int32 values) ascending in place. Small
// inputs take the generic pdqsort; larger ones an LSD radix sort over aux,
// which the caller reuses across tiles (the returned slice is the possibly
// grown aux). Both paths produce the identical sorted order.
//
//hot:path
func sortInt32(s, aux []int32) []int32 {
	const radixMin = 128
	if len(s) < radixMin {
		slices.Sort(s)
		return aux
	}
	if cap(aux) < len(s) {
		aux = make([]int32, len(s))
	}
	aux = aux[:len(s)]
	var count [4][256]int
	for _, v := range s {
		count[0][v&0xff]++
		count[1][(v>>8)&0xff]++
		count[2][(v>>16)&0xff]++
		count[3][(v>>24)&0xff]++
	}
	from, to := s, aux
	for pass := 0; pass < 4; pass++ {
		shift := uint(pass * 8)
		c := &count[pass]
		// All keys share this byte: the pass is the identity, skip it.
		if c[(from[0]>>shift)&0xff] == len(s) {
			continue
		}
		offs := 0
		for b := 0; b < 256; b++ {
			n := c[b]
			c[b] = offs
			offs += n
		}
		for _, v := range from {
			b := (v >> shift) & 0xff
			to[c[b]] = v
			c[b]++
		}
		from, to = to, from
	}
	if &from[0] != &s[0] {
		copy(s, from)
	}
	return aux
}

// countRuns counts distinct values in a slice where equal values are
// contiguous (sorted or row-major grouped).
//
//hot:path
func countRuns(s []int32) int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			n++
		}
	}
	return n
}

// NNZ reports the total nonzeros across all tiles.
func (g *Grid) NNZ() int { return len(g.Vals) }

// RowMajor returns the grid's nonzeros in global (row, col)-ascending order
// as packed keys (row<<32 | col), aligned with the tile index owning each
// nonzero. The view is built once per grid and shared by every caller
// (read-only; callers must not mutate the returned slices), so sweeps that
// traverse the same matrix untiled — the cold-pool builder does, once per
// simulated run — stop re-sorting the nonzeros per run.
//
// Ordering argument: the build is a counting sort by row that is stable
// over the tile order. A row lives in exactly one panel; that panel's tiles
// are visited in ascending tile-column order, tile column ranges are
// disjoint and ascending, and within a tile entries are (row, col) sorted.
// So within each row the columns come out ascending, and the result is
// exactly the order slices.Sort would give the packed keys.
func (g *Grid) RowMajor() (keys []uint64, tileOf []int32) {
	g.rmOnce.Do(g.buildRowMajor)
	return g.rmKeys, g.rmTile
}

func (g *Grid) buildRowMajor() {
	nnz := g.NNZ()
	g.rmKeys = make([]uint64, nnz)
	g.rmTile = make([]int32, nnz)
	counts := make([]int, g.N+1)
	for _, r := range g.Rows {
		counts[r+1]++
	}
	for r := 0; r < g.N; r++ {
		counts[r+1] += counts[r]
	}
	for ti := range g.Tiles {
		t := &g.Tiles[ti]
		for j := t.Start; j < t.End; j++ {
			r := g.Rows[j]
			o := counts[r]
			counts[r] = o + 1
			g.rmKeys[o] = uint64(r)<<32 | uint64(uint32(g.Cols[j]))
			g.rmTile[o] = int32(ti)
		}
	}
}

// Panel returns the tiles of row panel tr as a sub-slice of g.Tiles.
func (g *Grid) Panel(tr int) []Tile {
	return g.Tiles[g.PanelStart[tr]:g.PanelStart[tr+1]]
}

// PanelRows returns the row range [lo, hi) covered by panel tr.
func (g *Grid) PanelRows(tr int) (lo, hi int) {
	lo = tr * g.TileH
	hi = lo + g.TileH
	if hi > g.N {
		hi = g.N
	}
	return lo, hi
}

// TileNonzeros returns the nonzeros of tile index ti as sub-slices of the
// grid's tile-ordered arrays (no copies).
func (g *Grid) TileNonzeros(ti int) (rows, cols []int32, vals []float64) {
	t := &g.Tiles[ti]
	return g.Rows[t.Start:t.End], g.Cols[t.Start:t.End], g.Vals[t.Start:t.End]
}

// PanelUniqRows returns, for panel tr, the number of distinct row ids among
// the nonzeros of the tiles selected by keep (indexed by position within the
// panel). It is used by the model's reuse readjustment: the Dout rows a
// worker touches in a panel equal the distinct r_ids across the tiles
// assigned to it.
func (g *Grid) PanelUniqRows(tr int, keep func(i int) bool) int {
	n, _ := g.PanelUniqRowsScratch(tr, keep, nil)
	return n
}

// PanelUniqRowsScratch is PanelUniqRows over a caller-owned seen buffer,
// for loops that visit every panel (the model's reuse readjustment): the
// buffer is cleared and grown as needed and returned for reuse, so the
// per-panel allocation disappears. Passing nil allocates a fresh buffer.
func (g *Grid) PanelUniqRowsScratch(tr int, keep func(i int) bool, seen []bool) (int, []bool) {
	lo, hi := g.PanelRows(tr)
	if cap(seen) < hi-lo {
		seen = make([]bool, hi-lo)
	} else {
		seen = seen[:hi-lo]
		clear(seen)
	}
	n := 0
	for i, t := range g.Panel(tr) {
		if keep != nil && !keep(i) {
			continue
		}
		for _, r := range g.Rows[t.Start:t.End] {
			if !seen[int(r)-lo] {
				seen[int(r)-lo] = true
				n++
			}
		}
	}
	return n, seen
}

// Validate checks the grid's structural invariants: geometry consistent
// with N and the tile size, tiles ordered by (TR, TC) inside the grid,
// panel starts matching the tiles, spans contiguous and covering, stats
// consistent, and all nonzeros inside both their tile and the matrix.
// Slice lengths, tile coordinates and span bounds are checked before any
// indexing: hotcore.ReadPlan runs this on gob-decoded grids and then
// derives the hot and cold sections from them, so Validate must reject a
// corrupt stream rather than let it panic there.
func (g *Grid) Validate() error {
	if g.N <= 0 || g.N > math.MaxInt32 || g.TileH <= 0 || g.TileW <= 0 {
		return fmt.Errorf("tile: invalid geometry N=%d tile %dx%d", g.N, g.TileH, g.TileW)
	}
	if g.NumTR != (g.N-1)/g.TileH+1 || g.NumTC != (g.N-1)/g.TileW+1 {
		return fmt.Errorf("tile: %dx%d tile grid does not fit N=%d with %dx%d tiles",
			g.NumTR, g.NumTC, g.N, g.TileH, g.TileW)
	}
	if len(g.PanelStart) != g.NumTR+1 {
		return fmt.Errorf("tile: %d panel starts for %d panels", len(g.PanelStart), g.NumTR)
	}
	if len(g.Rows) != len(g.Vals) || len(g.Cols) != len(g.Vals) {
		return fmt.Errorf("tile: ragged coordinate slices: rows=%d cols=%d vals=%d",
			len(g.Rows), len(g.Cols), len(g.Vals))
	}
	prev := 0
	for i := range g.Tiles {
		t := &g.Tiles[i]
		if t.TR < 0 || t.TR >= g.NumTR || t.TC < 0 || t.TC >= g.NumTC {
			return fmt.Errorf("tile: tile %d at (%d,%d) outside the %dx%d grid", i, t.TR, t.TC, g.NumTR, g.NumTC)
		}
		if t.Start != prev {
			return fmt.Errorf("tile: tile %d span starts at %d, want %d", i, t.Start, prev)
		}
		if t.End <= t.Start {
			return fmt.Errorf("tile: tile %d empty or inverted span", i)
		}
		if t.End > len(g.Vals) {
			return fmt.Errorf("tile: tile %d span ends at %d beyond %d nonzeros", i, t.End, len(g.Vals))
		}
		prev = t.End
		if i > 0 {
			p := &g.Tiles[i-1]
			if t.TR < p.TR || (t.TR == p.TR && t.TC <= p.TC) {
				return fmt.Errorf("tile: tiles out of order at %d", i)
			}
		}
		rlo, rhi := g.PanelRows(t.TR)
		clo, chi := t.TC*g.TileW, min(t.TC*g.TileW+g.TileW, g.N)
		for j := t.Start; j < t.End; j++ {
			if int(g.Rows[j]) < rlo || int(g.Rows[j]) >= rhi ||
				int(g.Cols[j]) < clo || int(g.Cols[j]) >= chi {
				return fmt.Errorf("tile: nonzero %d (%d,%d) outside tile (%d,%d)",
					j, g.Rows[j], g.Cols[j], t.TR, t.TC)
			}
		}
		if t.UniqRows < 1 || t.UniqRows > t.NNZ() || t.UniqCols < 1 || t.UniqCols > t.NNZ() {
			return fmt.Errorf("tile: tile %d has inconsistent uniq stats", i)
		}
	}
	if prev != len(g.Vals) {
		return fmt.Errorf("tile: tiles cover %d nonzeros, want %d", prev, len(g.Vals))
	}
	ti := 0
	for tr, start := range g.PanelStart {
		for ti < len(g.Tiles) && g.Tiles[ti].TR < tr {
			ti++
		}
		if start != ti {
			return fmt.Errorf("tile: panel %d starts at tile %d, want %d", tr, start, ti)
		}
	}
	return nil
}

// ToCOO reassembles the grid's nonzeros into a row-major COO (used to verify
// the tiling is a permutation of the original matrix).
func (g *Grid) ToCOO() *sparse.COO {
	m := sparse.NewCOO(g.N, g.NNZ())
	m.Rows = append(m.Rows, g.Rows...)
	m.Cols = append(m.Cols, g.Cols...)
	m.Vals = append(m.Vals, g.Vals...)
	m.SortRowMajor()
	return m
}
