package hotcore

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// coldSectionSorted is the cold-section builder the counting scatter
// replaced, kept as its oracle: append the cold tiles' nonzeros in tile
// order, then stable-sort them row-major.
func coldSectionSorted(g *tile.Grid, hot []bool) *sparse.COO {
	m := sparse.NewCOO(g.N, 0)
	for i := range g.Tiles {
		if hot[i] {
			continue
		}
		rows, cols, vals := g.TileNonzeros(i)
		m.Rows = append(m.Rows, rows...)
		m.Cols = append(m.Cols, cols...)
		m.Vals = append(m.Vals, vals...)
	}
	m.SortRowMajor()
	return m
}

// sectionGrids tiles every internal/gen benchmark mimic at a small scale,
// with power-of-two and odd tile sizes, and pairs each grid with a random
// assignment plus the all-hot and all-cold ones.
func sectionGrids(t *testing.T) (grids []*tile.Grid, hots [][]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	for i, b := range gen.Benchmarks() {
		m := b.Build(int64(72+i), 4096)
		for _, ts := range [][2]int{{64, 64}, {48, 80}} {
			g, err := tile.Partition(m, ts[0], ts[1])
			if err != nil {
				t.Fatal(err)
			}
			random := make([]bool, len(g.Tiles))
			for j := range random {
				random[j] = rng.Intn(3) == 0
			}
			allHot := make([]bool, len(g.Tiles))
			for j := range allHot {
				allHot[j] = true
			}
			for _, hot := range [][]bool{random, allHot, make([]bool, len(g.Tiles))} {
				grids = append(grids, g)
				hots = append(hots, hot)
			}
		}
	}
	return grids, hots
}

// TestColdSectionMatchesSortOracle pins the counting scatter bit for bit
// to the append-and-sort builder, in both cold formats.
func TestColdSectionMatchesSortOracle(t *testing.T) {
	grids, hots := sectionGrids(t)
	for i, g := range grids {
		want := coldSectionSorted(g, hots[i])
		coo, noCSR := coldSection(g, hots[i], false)
		if noCSR != nil || coo.N != want.N || !slices.Equal(coo.Rows, want.Rows) ||
			!slices.Equal(coo.Cols, want.Cols) || !slices.Equal(coo.Vals, want.Vals) {
			t.Fatalf("grid %d: COO cold section differs from the sorted oracle", i)
		}
		wantCSR := sparse.ToCSR(want)
		noCOO, csr := coldSection(g, hots[i], true)
		if noCOO != nil || csr.N != wantCSR.N || !slices.Equal(csr.RowPtr, wantCSR.RowPtr) ||
			!slices.Equal(csr.Cols, wantCSR.Cols) || !slices.Equal(csr.Vals, wantCSR.Vals) {
			t.Fatalf("grid %d: CSR cold section differs from the sorted oracle", i)
		}
	}
}

// TestHotSectionBlocksAreCappedViews checks that every hot block views its
// tile's span of the grid with cap == len, so an append to a block
// reallocates instead of writing into the grid.
func TestHotSectionBlocksAreCappedViews(t *testing.T) {
	grids, hots := sectionGrids(t)
	for i, g := range grids {
		for _, csr := range []bool{false, true} {
			hs := hotSection(g, hots[i], csr)
			b := 0
			for ti := range g.Tiles {
				if !hots[i][ti] {
					continue
				}
				blk := &hs.Blocks[b]
				b++
				rows, cols, vals := g.TileNonzeros(ti)
				if &blk.Rows[0] != &rows[0] || &blk.Cols[0] != &cols[0] || &blk.Vals[0] != &vals[0] {
					t.Fatalf("grid %d block %d: not a view of tile %d", i, b-1, ti)
				}
				if cap(blk.Rows) != len(blk.Rows) || cap(blk.Cols) != len(blk.Cols) || cap(blk.Vals) != len(blk.Vals) {
					t.Fatalf("grid %d block %d: cap exceeds len", i, b-1)
				}
			}
			if b != len(hs.Blocks) {
				t.Fatalf("grid %d: %d blocks for %d hot tiles", i, len(hs.Blocks), b)
			}
		}
	}
}
