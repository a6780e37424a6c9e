package partition

// Property-based tests: every partitioning strategy, run across a sweep of
// randomly generated matrices and pool configurations, must produce a total
// assignment (each non-empty tile goes to exactly one worker type, no tile
// is invented or dropped) and respect the structural guarantees the rest of
// the pipeline relies on. The matrices vary in heterogeneity, density, and
// size; the configurations include the degenerate 0-worker pools of the
// §VIII-B iso-scale studies.

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tile"
)

// propGrids builds a diverse set of grids: IMH-heavy, uniform, tiny, and a
// banded matrix, each at a couple of seeds.
func propGrids(t *testing.T) []*tile.Grid {
	t.Helper()
	var gs []*tile.Grid
	for _, seed := range []int64{1, 7, 42} {
		gs = append(gs, imhMatrix(t, 256, 32, 2000, 1500, seed))
		rng := rand.New(rand.NewSource(seed + 100))
		m := sparse.NewCOO(128, 3000)
		for i := 0; i < 3000; i++ {
			m.Append(int32(rng.Intn(128)), int32(rng.Intn(128)), 1)
		}
		m.SortRowMajor()
		m.DedupSum()
		g, err := tile.Partition(m, 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	// A tiny matrix: a single tile exercises the cutoff edge cases.
	m := sparse.NewCOO(8, 3)
	m.Append(0, 1, 1)
	m.Append(3, 3, 1)
	m.Append(7, 0, 1)
	m.SortRowMajor()
	g, err := tile.Partition(m, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return append(gs, g)
}

// propConfigs varies the pool sizes, including the degenerate all-hot and
// all-cold architectures.
func propConfigs() []Config {
	mk := func(hot, cold int) Config {
		c := testConfig()
		c.Hot = hotWorker(hot)
		c.Cold = coldWorker(cold)
		return c
	}
	return []Config{
		mk(1, 8), mk(4, 4), mk(8, 1), mk(0, 8), mk(8, 0), mk(1, 1),
	}
}

// coldNNZ counts the nonzeros assigned to the cold pool.
func coldNNZ(g *tile.Grid, hot []bool) int {
	n := 0
	for i, t := range g.Tiles {
		if !hot[i] {
			n += t.NNZ()
		}
	}
	return n
}

// checkTotalAssignment asserts the core partitioning invariant: the
// assignment covers exactly the grid's tiles and conserves nonzeros.
func checkTotalAssignment(t *testing.T, g *tile.Grid, r Result, label string) {
	t.Helper()
	if len(r.Hot) != len(g.Tiles) {
		t.Fatalf("%s: assignment covers %d tiles, grid has %d", label, len(r.Hot), len(g.Tiles))
	}
	hotN, _ := r.HotNNZ(g)
	if hotN+coldNNZ(g, r.Hot) != g.NNZ() {
		t.Fatalf("%s: hot %d + cold %d nonzeros != total %d",
			label, hotN, coldNNZ(g, r.Hot), g.NNZ())
	}
	if r.Predicted < 0 {
		t.Fatalf("%s: negative predicted runtime %g", label, r.Predicted)
	}
}

func TestPropEveryStrategyAssignsEveryTileOnce(t *testing.T) {
	for gi, g := range propGrids(t) {
		for ci, cfg := range propConfigs() {
			es, err := NewEstimates(g, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			for h := MinTimeParallel; h < numHeuristics; h++ {
				r, err := Run(es, cfg, Forced(h), 0)
				if err != nil {
					t.Fatal(err)
				}
				label := h.String()
				checkTotalAssignment(t, g, r, label)
				if r.Serial != h.Serial() {
					t.Fatalf("grid %d cfg %d %s: Serial=%v, heuristic says %v",
						gi, ci, label, r.Serial, h.Serial())
				}
				// Degenerate pools must force a homogeneous assignment.
				if cfg.Hot.Count <= 0 || cfg.Cold.Count <= 0 {
					wantHot := cfg.Cold.Count <= 0
					for i, hot := range r.Hot {
						if hot != wantHot {
							t.Fatalf("grid %d cfg %d %s: tile %d not forced to %s pool",
								gi, ci, label, i, map[bool]string{true: "hot", false: "cold"}[wantHot])
						}
					}
				}
			}
			ht, err := Run(es, cfg, HotTiles, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkTotalAssignment(t, g, ht, "HotTiles")
			iu, err := Run(es, cfg, IUnaware, int64(gi*10+ci))
			if err != nil {
				t.Fatal(err)
			}
			checkTotalAssignment(t, g, iu, "IUnaware")
		}
	}
}

// TestPropHotTilesDominatesForcedHeuristics: HotTiles picks the best of the
// four subproblems, so its predicted runtime can never exceed any forced
// heuristic's. This holds by construction; the test guards the selection
// logic against regressions.
func TestPropHotTilesDominatesForcedHeuristics(t *testing.T) {
	for _, g := range propGrids(t) {
		for _, cfg := range propConfigs() {
			es, err := NewEstimates(g, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			ht, err := Run(es, cfg, HotTiles, 0)
			if err != nil {
				t.Fatal(err)
			}
			for h := MinTimeParallel; h < numHeuristics; h++ {
				r, err := Run(es, cfg, Forced(h), 0)
				if err != nil {
					t.Fatal(err)
				}
				if ht.Predicted > r.Predicted*(1+1e-12) {
					t.Fatalf("HotTiles predicted %g exceeds forced %s's %g",
						ht.Predicted, h, r.Predicted)
				}
			}
		}
	}
}

// TestPropHotTilesNoWorseThanIUnaware: on the sweep's fixed seeds, the
// IMH-aware partitioning's modeled time never loses to the IMH-unaware
// baseline. This is not a theorem — IUnaware could get lucky — but across
// these deterministic inputs it is a regression property the paper's whole
// premise (Figures 10-11) depends on.
func TestPropHotTilesNoWorseThanIUnaware(t *testing.T) {
	for gi, g := range propGrids(t) {
		for ci, cfg := range propConfigs() {
			es, err := NewEstimates(g, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			ht, err := Run(es, cfg, HotTiles, 0)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 3; seed++ {
				iu, err := Run(es, cfg, IUnaware, seed)
				if err != nil {
					t.Fatal(err)
				}
				if ht.Predicted > iu.Predicted*(1+1e-9) {
					t.Fatalf("grid %d cfg %d seed %d: HotTiles predicted %g worse than IUnaware's %g",
						gi, ci, seed, ht.Predicted, iu.Predicted)
				}
			}
		}
	}
}
