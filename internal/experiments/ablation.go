package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/partition"
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

// Reorder runs the reordering ablation on SPADE-Sextans (scale 4): HotTiles
// on each ordering of each benchmark, one cell per (ordering, benchmark).
// The original column is Fig 10's HotTiles cells; the reordered matrices
// stay private to their cells (Env.estimates).
func (e *Env) Reorder() (*ReorderAblation, error) {
	a := arch.SpadeSextans(4)
	g, err := e.grid([]cell{{arch: a}, {arch: a, order: bfsClustered}, {arch: a, order: shuffled}},
		gen.Benchmarks(), partition.HotTiles)
	if err != nil {
		return nil, err
	}
	out := &ReorderAblation{}
	var slow, speed []float64
	for bi, b := range g.suite {
		o, c, s := g.at(0, bi, 0), g.at(1, bi, 0), g.at(2, bi, 0)
		out.Rows = append(out.Rows, ReorderAblationRow{Short: b.Short,
			Original: o.Time, Clustered: c.Time, Shuffled: s.Time,
			FracOriginal: o.HotFrac, FracClustered: c.HotFrac, FracShuffled: s.HotFrac})
		slow = append(slow, s.Time/o.Time)
		speed = append(speed, o.Time/c.Time)
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
