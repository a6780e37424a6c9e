package hotcore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
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
// plus one mimic at a scale whose nonzeros the cold-section scatter splits
// into chunks, with power-of-two and odd tile sizes, and pairs each grid
// with a random assignment plus the all-hot and all-cold ones.
func sectionGrids(t *testing.T) (grids []*tile.Grid, hots [][]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	ms := make([]*sparse.COO, 0, len(gen.Benchmarks())+1)
	for i, b := range gen.Benchmarks() {
		ms = append(ms, b.Build(int64(72+i), 4096))
	}
	pap, _ := gen.ByShort("pap")
	ms = append(ms, pap.Build(1, 400))
	for _, m := range ms {
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

// TestColdSectionSameAtEveryWorkerCount pins the chunked cold-section
// scatter to its one-worker result at 2 and 5 workers, in both formats.
func TestColdSectionSameAtEveryWorkerCount(t *testing.T) {
	build := func(w int, g *tile.Grid, hot []bool, csr bool) (*sparse.COO, *sparse.CSR) {
		defer par.SetWorkers(par.SetWorkers(w))
		return coldSection(g, hot, csr)
	}
	grids, hots := sectionGrids(t)
	for i, g := range grids {
		for _, csr := range []bool{false, true} {
			wantCOO, wantCSR := build(1, g, hots[i], csr)
			for _, w := range []int{2, 5} {
				coo, c := build(w, g, hots[i], csr)
				if !reflect.DeepEqual(coo, wantCOO) || !reflect.DeepEqual(c, wantCSR) {
					t.Fatalf("grid %d, csr %v, %d workers: cold section differs from one worker", i, csr, w)
				}
			}
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
