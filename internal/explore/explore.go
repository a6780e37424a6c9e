// Package explore implements the architecture-exploration use case of
// §VIII-B: sweep the "iso-scale" skewed SPADE-Sextans architectures (c-h
// with c+h fixed), partition each with HotTiles, and compare the runtime
// the model predicts against the simulated one — both for the
// fixed-architecture scenario (Figure 16: best average architecture) and
// the reconfigurable scenario (Table IX: best architecture per matrix).
package explore

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// Entry is one (matrix, iso-scale architecture) evaluation.
type Entry struct {
	ColdScale, HotScale int
	// Predicted is the HotTiles model's runtime; Actual the simulated one.
	Predicted, Actual float64
	// Result is the HotTiles partitioning used by both.
	Result partition.Result
}

// Name returns the paper's "c-h" architecture label.
func (e Entry) Name() string { return fmt.Sprintf("%d-%d", e.ColdScale, e.HotScale) }

// IsoScale evaluates every skewed SPADE-Sextans architecture with
// coldScale+hotScale == total on matrix m, using tileSize tiles. Entries
// arrive in 0-total … total-0 order.
func IsoScale(m *sparse.COO, total, tileSize int) ([]Entry, error) {
	if total < 1 {
		return nil, fmt.Errorf("explore: total scale %d < 1", total)
	}
	// The tiling only depends on m and tileSize, not on the skew: build the
	// grid once instead of once per architecture. The skewed architectures'
	// worker parameters do vary with the scale, so estimates are per-entry.
	g, err := tile.Partition(m, tileSize, tileSize)
	if err != nil {
		return nil, err
	}
	// The c-loop entries are independent (HotTiles and the simulator only
	// read the shared grid); run them concurrently into indexed slots.
	out := make([]Entry, total+1)
	if err := par.ForEachErr(total+1, func(c int) error {
		h := total - c
		a := arch.SpadeSextansSkewed(c, h)
		a.TileH, a.TileW = tileSize, tileSize
		cfg := a.Config(2)
		es, err := partition.NewEstimates(g, &cfg)
		if err != nil {
			return err
		}
		res, err := partition.Run(es, cfg, partition.HotTiles, 0)
		if err != nil {
			return err
		}
		// No sim.UnitCache here (unlike GNN layers or batches): every entry
		// simulates a distinct skewed architecture, so no two runs could
		// share built unit pools — the Runner free list inside sim.Run is
		// the applicable reuse.
		r, err := sim.Run(g, res.Hot, &a, nil, sim.Options{
			Serial:         res.Serial,
			SkipFunctional: true,
		})
		if err != nil {
			return err
		}
		out[c] = Entry{
			ColdScale: c,
			HotScale:  h,
			Predicted: res.Predicted,
			Actual:    r.Time,
			Result:    res,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Best returns the indices of the entries with the lowest predicted and
// lowest actual runtimes (the Table IX columns).
func Best(entries []Entry) (predBest, actualBest int) {
	for i, e := range entries {
		if e.Predicted < entries[predBest].Predicted {
			predBest = i
		}
		if e.Actual < entries[actualBest].Actual {
			actualBest = i
		}
	}
	return predBest, actualBest
}
