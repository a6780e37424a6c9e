package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// ReorderAblationRow is one matrix's outcome under the three orderings.
type ReorderAblationRow struct {
	Short string
	// HotTiles runtimes (seconds) on the original, BFS-clustered, and
	// randomly shuffled matrix.
	Original, Clustered, Shuffled float64
	// Hot nonzero fractions per ordering.
	FracOriginal, FracClustered, FracShuffled float64
}

// ReorderAblation measures the effect the paper anticipates from matrix
// reordering (§IX-D, §X): a clustering pass should preserve or improve
// HotTiles' runtime by forming better-defined dense regions, while a random
// shuffle — which destroys IMH — should hurt it.
type ReorderAblation struct {
	Rows []ReorderAblationRow
	// AvgShuffleSlowdown is the geomean of shuffled/original runtimes.
	AvgShuffleSlowdown float64
	// AvgClusterSpeedup is the geomean of original/clustered runtimes.
	AvgClusterSpeedup float64
}

// Reorder runs the reordering ablation on SPADE-Sextans (scale 4), one
// concurrent job per benchmark (the reordered matrices are private to each
// job, so nothing is shared beyond the read-only Env caches).
func (e *Env) Reorder() (*ReorderAblation, error) {
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = e.TileSize(), e.TileSize()
	suite := gen.Benchmarks()
	rows := make([]ReorderAblationRow, len(suite))
	if err := par.ForEachErr(len(suite), func(i int) error {
		b := suite[i]
		m := e.Matrix(b)
		run := func(mat *sparse.COO) (float64, float64, error) {
			g, err := tile.Partition(mat, a.TileH, a.TileW)
			if err != nil {
				return 0, 0, err
			}
			cfg := a.Config(2)
			es, err := partition.NewEstimates(g, &cfg)
			if err != nil {
				return 0, 0, err
			}
			res, err := partition.Run(es, cfg, partition.HotTiles, 0)
			if err != nil {
				return 0, 0, err
			}
			r, err := sim.Run(g, res.Hot, &a, nil, sim.Options{Serial: res.Serial, SkipFunctional: true})
			if err != nil {
				return 0, 0, err
			}
			_, frac := res.HotNNZ(g)
			return r.Time, frac, nil
		}

		clustered, err := reorder.Apply(m, reorder.BFSCluster(m))
		if err != nil {
			return err
		}
		shuffled, err := reorder.Apply(m, reorder.Random(m.N, e.Seed))
		if err != nil {
			return err
		}

		row := ReorderAblationRow{Short: b.Short}
		if row.Original, row.FracOriginal, err = run(m); err != nil {
			return err
		}
		if row.Clustered, row.FracClustered, err = run(clustered); err != nil {
			return err
		}
		if row.Shuffled, row.FracShuffled, err = run(shuffled); err != nil {
			return err
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	out := &ReorderAblation{Rows: rows}
	var slow, speed []float64
	for _, row := range rows {
		slow = append(slow, row.Shuffled/row.Original)
		speed = append(speed, row.Original/row.Clustered)
	}
	out.AvgShuffleSlowdown = geomean(slow)
	out.AvgClusterSpeedup = geomean(speed)
	return out, nil
}

// Render prints the reordering ablation.
func (r *ReorderAblation) Render(w io.Writer) {
	fmt.Fprintln(w, "Reordering ablation — HotTiles runtime (ms) per ordering, SPADE-Sextans 4-4")
	fmt.Fprintf(w, "%-8s%12s%12s%12s%24s\n", "matrix", "original", "BFS", "shuffled", "hot nnz % (o/b/s)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s%12.4f%12.4f%12.4f%12.0f/%3.0f/%3.0f\n",
			row.Short, row.Original*1e3, row.Clustered*1e3, row.Shuffled*1e3,
			row.FracOriginal*100, row.FracClustered*100, row.FracShuffled*100)
	}
	fmt.Fprintf(w, "random shuffle slows HotTiles by %.2fx on average; BFS clustering changes it by %.2fx\n",
		r.AvgShuffleSlowdown, r.AvgClusterSpeedup)
}
