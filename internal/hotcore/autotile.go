package hotcore

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// AutoTileResult reports one candidate of the tile-size search.
type AutoTileResult struct {
	TileSize  int
	Predicted float64 // HotTiles-predicted runtime, seconds
	Valid     bool    // false when the size overflows a scratchpad
}

// AutoTileSize implements the free-dimension sizing of §IV: when a tile
// dimension is not pinned by a scratchpad, "the IMH-aware modeling and
// partitioning methodology can be iteratively applied to find the value
// that is predicted to deliver the maximum performance". It evaluates each
// candidate square tile size with the full HotTiles pipeline prediction and
// returns the candidate with the lowest predicted runtime, together with
// the per-candidate sweep. Candidates that overflow a worker's scratchpad
// are marked invalid and skipped (the paper's hard constraint); an error is
// returned only when no candidate is feasible.
func AutoTileSize(m *sparse.COO, a *arch.Arch, candidates []int, opsPerMAC float64) (int, []AutoTileResult, error) {
	if len(candidates) == 0 {
		return 0, nil, fmt.Errorf("hotcore: no tile-size candidates")
	}
	results := make([]AutoTileResult, 0, len(candidates))
	best := -1
	for _, ts := range candidates {
		r := AutoTileResult{TileSize: ts}
		trial := *a
		trial.TileH, trial.TileW = ts, ts
		if ts <= 0 || trial.Validate() != nil {
			results = append(results, r)
			continue
		}
		g, err := tile.Partition(m, ts, ts)
		if err != nil {
			return 0, nil, err
		}
		cfg := trial.Config(opsPerMAC)
		es, err := partition.NewEstimates(g, &cfg)
		if err != nil {
			return 0, nil, err
		}
		res, err := partition.Run(es, cfg, partition.HotTiles, 0)
		if err != nil {
			return 0, nil, err
		}
		r.Valid = true
		r.Predicted = res.Predicted
		if best < 0 || r.Predicted < results[best].Predicted {
			best = len(results)
		}
		results = append(results, r)
	}
	if best < 0 {
		return 0, results, fmt.Errorf("hotcore: no feasible tile size among %v", candidates)
	}
	return results[best].TileSize, results, nil
}
