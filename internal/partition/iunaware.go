package partition

import (
	"math/rand"

	"repro/internal/model"
)

// iunaware is the assignment of the IMH-unaware heterogeneous baseline of
// §III-B, which resembles AESPA's partitioning: estimate the whole matrix's
// execution time on each worker type with a Roofline model under a uniform
// nonzero distribution, derive the fraction of tiles for hot workers with
// Huang et al.'s formula (Equation 1), and assign that fraction of tiles at
// random. Run predicts it with the same readjusted evaluation as HotTiles
// so baselines and HotTiles are comparable.
func (es *Estimates) iunaware(cfg *Config, seed int64) []bool {
	g := es.Grid

	// Whole-matrix Roofline estimates: execution time is the max of
	// computation time and memory time at full system bandwidth (§III-B).
	rooflineTime := func(w *model.Worker) float64 {
		e := model.WholeMatrix(w, g.N, g.NNZ(), g.TileH, g.TileW, cfg.Params)
		compute := w.ComputeTime(g.NNZ(), cfg.Params.K, cfg.Params.OpsPerMAC)
		return maxf(compute, e.Bytes/cfg.BWBytes)
	}

	n := len(g.Tiles)
	hot := make([]bool, n)
	fracHot := 0.0
	switch {
	case cfg.Hot.Count <= 0:
		// No hot pool: stay all cold.
	case cfg.Cold.Count <= 0:
		fracHot = 1.0
	default:
		th := rooflineTime(cfg.Hot)
		tc := rooflineTime(cfg.Cold)
		exHW := th / float64(cfg.Hot.Count)
		exCW := tc / float64(cfg.Cold.Count)
		// Equation 1: frac_tile_hot = Ex_cw / (Ex_cw + Ex_hw).
		if exCW+exHW > 0 {
			fracHot = exCW / (exCW + exHW)
		}
	}

	// Random assignment honoring the fraction: shuffle tile indices and
	// mark the first ⌊frac·n⌉ hot.
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	nHot := int(fracHot*float64(n) + 0.5)
	for i := 0; i < nHot && i < n; i++ {
		hot[perm[i]] = true
	}

	return hot
}
