package tile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func randomCOO(rng *rand.Rand, n, nnz int) *sparse.COO {
	m := sparse.NewCOO(n, nnz)
	seen := map[[2]int32]bool{}
	for len(seen) < nnz && len(seen) < n*n {
		r, c := int32(rng.Intn(n)), int32(rng.Intn(n))
		if seen[[2]int32{r, c}] {
			continue
		}
		seen[[2]int32{r, c}] = true
		m.Append(r, c, rng.NormFloat64())
	}
	m.SortRowMajor()
	return m
}

func TestPartitionFigure3Tiles(t *testing.T) {
	// Reproduce the paper's Figure 3 tiles: 3x3 tiles, T1 with one nonzero,
	// T2 with five nonzeros spread over three columns.
	m := sparse.NewCOO(6, 6)
	// T1: tile (0,0) — single nonzero "a" at (0,0).
	m.Append(0, 0, 1)
	// T2: tile (1,1) — five nonzeros over rows 3..5, cols 3..5 with 3
	// distinct columns.
	m.Append(3, 3, 1)
	m.Append(3, 4, 1)
	m.Append(4, 4, 1)
	m.Append(4, 5, 1)
	m.Append(5, 3, 1)
	m.SortRowMajor()

	g, err := Partition(m, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Tiles) != 2 {
		t.Fatalf("tiles = %d, want 2 (empty tiles eliminated)", len(g.Tiles))
	}
	t1, t2 := g.Tiles[0], g.Tiles[1]
	if t1.NNZ() != 1 || t1.UniqCols != 1 || t1.UniqRows != 1 {
		t.Fatalf("T1 stats: nnz=%d uniqR=%d uniqC=%d", t1.NNZ(), t1.UniqRows, t1.UniqCols)
	}
	// The paper's point: a demand-access cold worker fetches uniq_cids=3 Din
	// rows for T2 vs the hot worker's tile_width=3 streamed rows; for T1 it
	// fetches 1 vs 3.
	if t2.NNZ() != 5 || t2.UniqCols != 3 || t2.UniqRows != 3 {
		t.Fatalf("T2 stats: nnz=%d uniqR=%d uniqC=%d", t2.NNZ(), t2.UniqRows, t2.UniqCols)
	}
}

func TestPartitionErrors(t *testing.T) {
	m := randomCOO(rand.New(rand.NewSource(1)), 8, 10)
	if _, err := Partition(m, 0, 4); err == nil {
		t.Fatal("expected tileH error")
	}
	if _, err := Partition(m, 4, -1); err == nil {
		t.Fatal("expected tileW error")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCOO(rng, 50, 400)
	g, err := Partition(m, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	back := g.ToCOO()
	if back.NNZ() != m.NNZ() {
		t.Fatalf("nnz %d -> %d", m.NNZ(), back.NNZ())
	}
	for i := 0; i < m.NNZ(); i++ {
		r1, c1, v1 := m.At(i)
		r2, c2, v2 := back.At(i)
		if r1 != r2 || c1 != c2 || v1 != v2 {
			t.Fatalf("entry %d differs after tiling round trip", i)
		}
	}
}

func TestPanelStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomCOO(rng, 40, 200)
	g, err := Partition(m, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for tr := 0; tr < g.NumTR; tr++ {
		for _, tl := range g.Panel(tr) {
			if tl.TR != tr {
				t.Fatalf("panel %d contains tile with TR=%d", tr, tl.TR)
			}
			total += tl.NNZ()
		}
		lo, hi := g.PanelRows(tr)
		if lo != tr*10 || hi > 40 || hi <= lo {
			t.Fatalf("panel %d rows [%d,%d)", tr, lo, hi)
		}
	}
	if total != m.NNZ() {
		t.Fatalf("panels cover %d nonzeros, want %d", total, m.NNZ())
	}
}

func TestPanelRowsLastPanelClamped(t *testing.T) {
	m := sparse.NewCOO(10, 1)
	m.Append(9, 9, 1)
	g, err := Partition(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTR != 3 {
		t.Fatalf("NumTR = %d, want 3", g.NumTR)
	}
	lo, hi := g.PanelRows(2)
	if lo != 8 || hi != 10 {
		t.Fatalf("last panel rows [%d,%d), want [8,10)", lo, hi)
	}
}

func TestPanelUniqRows(t *testing.T) {
	m := sparse.NewCOO(4, 4)
	m.Append(0, 0, 1) // tile (0,0)
	m.Append(0, 2, 1) // tile (0,1)
	m.Append(1, 0, 1) // tile (0,0)
	m.Append(1, 3, 1) // tile (0,1)
	m.SortRowMajor()
	g, err := Partition(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := g.PanelUniqRowsScratch(0, nil, nil); got != 2 {
		t.Fatalf("all tiles: uniq rows = %d, want 2", got)
	}
	if got, _ := g.PanelUniqRowsScratch(0, func(i int) bool { return i == 0 }, nil); got != 2 {
		t.Fatalf("tile 0 only: uniq rows = %d, want 2", got)
	}
	if got, _ := g.PanelUniqRowsScratch(0, func(i int) bool { return false }, nil); got != 0 {
		t.Fatalf("no tiles: uniq rows = %d, want 0", got)
	}
}

func TestTileNonzerosSpans(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomCOO(rng, 30, 150)
	g, err := Partition(m, 7, 5) // non-divisible tile sizes
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for ti := range g.Tiles {
		rows, cols, vals := g.TileNonzeros(ti)
		if len(rows) != g.Tiles[ti].NNZ() || len(cols) != len(rows) || len(vals) != len(rows) {
			t.Fatalf("tile %d ragged spans", ti)
		}
	}
}

// Property: for any matrix and tile size, the grid validates, covers all
// nonzeros exactly once, and per-tile uniq stats are bounded by min(nnz,
// tile dimension).
func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := randomCOO(rng, n, rng.Intn(3*n))
		th := 1 + rng.Intn(n)
		tw := 1 + rng.Intn(n)
		g, err := Partition(m, th, tw)
		if err != nil || g.Validate() != nil {
			return false
		}
		covered := 0
		for i := range g.Tiles {
			tl := &g.Tiles[i]
			covered += tl.NNZ()
			if tl.UniqRows > th || tl.UniqCols > tw {
				return false
			}
		}
		return covered == m.NNZ() && g.ToCOO().NNZ() == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomCOO(rng, 20, 80)
	g, err := Partition(m, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	g.Tiles[0].UniqRows = 0
	if g.Validate() == nil {
		t.Fatal("expected uniq-stat error")
	}
	g2, _ := Partition(m, 5, 5)
	g2.Rows[g2.Tiles[0].Start] = 19 // move nonzero outside tile bounds
	if g2.Validate() == nil {
		t.Fatal("expected out-of-bounds error")
	}
	g3, _ := Partition(m, 5, 5)
	if len(g3.Tiles) > 1 {
		g3.Tiles[1].Start++ // break contiguity
		if g3.Validate() == nil {
			t.Fatal("expected contiguity error")
		}
	}

	// Order damage inside a tile: two nonzeros swapped, or one coordinate
	// repeated, in the first and in the last tile with two nonzeros. The
	// grid knows no assignment, so a plan's hot and cold tiles are checked
	// alike.
	for _, c := range []struct {
		name    string
		corrupt func(g *Grid, j int)
	}{
		{"out of order", func(g *Grid, j int) {
			g.Rows[j], g.Rows[j+1] = g.Rows[j+1], g.Rows[j]
			g.Cols[j], g.Cols[j+1] = g.Cols[j+1], g.Cols[j]
		}},
		{"repeated coordinate", func(g *Grid, j int) {
			g.Rows[j+1], g.Cols[j+1] = g.Rows[j], g.Cols[j]
		}},
	} {
		for _, last := range []bool{false, true} {
			g5, _ := Partition(m, 5, 5)
			ti := -1
			for i := range g5.Tiles {
				if g5.Tiles[i].NNZ() >= 2 && (ti < 0 || last) {
					ti = i
				}
			}
			if ti < 0 {
				t.Fatal("test matrix has no tile with two nonzeros")
			}
			c.corrupt(g5, g5.Tiles[ti].Start)
			if g5.Validate() == nil {
				t.Errorf("%s in tile %d: corrupt grid validated", c.name, ti)
			}
		}
	}

	// Geometry damage, the shapes a corrupt plan file can decode into.
	// 7-row tiles leave a 6-row last panel on N=20.
	for name, corrupt := range map[string]func(g *Grid){
		"zero tile height":   func(g *Grid) { g.TileH = 0 },
		"panel count":        func(g *Grid) { g.NumTR++ },
		"panel starts short": func(g *Grid) { g.PanelStart = g.PanelStart[:g.NumTR] },
		"panel start moved":  func(g *Grid) { g.PanelStart[1]++ },
		"tile outside grid":  func(g *Grid) { g.Tiles[len(g.Tiles)-1].TC = g.NumTC },
		"nonzero beyond N": func(g *Grid) {
			last := g.Tiles[len(g.Tiles)-1]
			g.Rows[last.Start] = int32(g.N)
		},
	} {
		g4, err := Partition(m, 7, 7)
		if err != nil {
			t.Fatal(err)
		}
		if g4.Tiles[len(g4.Tiles)-1].TR != g4.NumTR-1 {
			t.Fatal("test matrix has no nonzero in the last panel")
		}
		corrupt(g4)
		if g4.Validate() == nil {
			t.Errorf("%s: corrupt grid validated", name)
		}
	}
}
