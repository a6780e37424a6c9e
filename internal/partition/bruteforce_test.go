package partition

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/tile"
)

// bruteForceBest exhaustively evaluates all 2^n assignments in both
// execution modes with the same readjusted predictor HotTiles uses,
// returning the optimal predicted runtime (the paper's intractable baseline
// from §V-B).
func bruteForceBest(t *testing.T, g *tile.Grid, cfg *Config) float64 {
	t.Helper()
	n := len(g.Tiles)
	if n > 16 {
		t.Fatalf("too many tiles (%d) for brute force", n)
	}
	es, err := NewEstimates(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	hot := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			hot[i] = mask&(1<<i) != 0
		}
		tot := es.totals(cfg, hot)
		for _, serial := range []bool{false, true} {
			if p := predictedRuntime(g, cfg, hot, tot, serial); p < best {
				best = p
			}
		}
	}
	return best
}

// TestHotTilesNearOptimal compares the polynomial-time heuristics against
// exhaustive search on small grids: the paper motivates the heuristics as
// an approximation of an exponential search, so HotTiles must land within a
// modest factor of the true optimum of its own objective.
func TestHotTilesNearOptimal(t *testing.T) {
	cfg := testConfig()
	worst := 1.0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// 3x3 tile grid over a 96x96 matrix with mixed-density tiles.
		m := sparse.NewCOO(96, 0)
		for i := 0; i < 300; i++ {
			m.Append(int32(rng.Intn(32)), int32(rng.Intn(32)), 1) // dense corner
		}
		for i := 0; i < 150; i++ {
			m.Append(int32(rng.Intn(96)), int32(rng.Intn(96)), 1)
		}
		m.SortRowMajor()
		m.DedupSum()
		g, err := tile.Partition(m, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Tiles) > 12 {
			t.Fatalf("seed %d: %d tiles", seed, len(g.Tiles))
		}
		res := run(t, g, cfg, HotTiles, 0)
		opt := bruteForceBest(t, g, &cfg)
		if opt <= 0 {
			t.Fatalf("seed %d: degenerate optimum", seed)
		}
		ratio := res.Predicted / opt
		if ratio < 1-1e-9 {
			t.Fatalf("seed %d: HotTiles (%.3e) beat the exhaustive optimum (%.3e)?", seed, res.Predicted, opt)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	// The heuristics are approximations; across these instances they stay
	// within 25% of optimal.
	if worst > 1.25 {
		t.Fatalf("HotTiles strayed %.2fx from the exhaustive optimum", worst)
	}
	t.Logf("worst-case HotTiles/optimal predicted ratio over 20 instances: %.3f", worst)
}

// TestIUnawareFarFromOptimal sanity-checks the baseline: on strongly
// heterogeneous instances the random split should generally predict worse
// than HotTiles.
func TestIUnawareNotBetterThanHotTiles(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 10; seed++ {
		g := imhMatrix(t, 256, 32, 900, 300, seed+100)
		ht := run(t, g, cfg, HotTiles, 0)
		iu := run(t, g, cfg, IUnaware, seed)
		if ht.Predicted > iu.Predicted*(1+1e-9) {
			t.Fatalf("seed %d: HotTiles %.3e predicted worse than IUnaware %.3e",
				seed, ht.Predicted, iu.Predicted)
		}
	}
}
