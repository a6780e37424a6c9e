// Package workload builds the dynamic workloads the paper motivates
// HotTiles with but never constructs: the multi-layer GNN inference loop
// that amortizes one preprocessing plan across layers (§VI-B: plans are
// "generated and used during GNN training ... saved and reused during GNN
// inference"), a batched multi-tenant executor that mixes SpMM/SpMV/SDDMM
// requests over one shared simulated accelerator, and an evolving-graph
// driver that applies edge insert/delete streams incrementally and
// re-partitions only when the analytical model says the active plan has
// gone stale (the staleness-vs-re-plan-cost trade-off, DESIGN.md §15).
//
// Everything here is deterministic given its seeds: simulated times come
// from the fluid simulator, assignments from the partitioner, and edit
// streams from seeded generators — which is what lets the experiment layer
// pin the gnn and evolve studies with byte-stable golden files.
package workload

import (
	"math"

	"repro/internal/dense"
	"repro/internal/hotcore"
	"repro/internal/obs"
	"repro/internal/tile"
)

// Workload observability, surfaced on /metrics wherever the debug plane is
// mounted (hottilesd, spmmsim -debug-addr).
var (
	gnnRuns       = obs.NewCounter("workload.gnn.runs")
	gnnLayers     = obs.NewCounter("workload.gnn.layers")
	batchRequests = obs.NewCounter("workload.batch.requests")
	evolveSteps   = obs.NewCounter("workload.evolve.steps")
	evolveReplans = obs.NewCounter("workload.evolve.replans")
)

// relu clamps negatives to zero in place — the activation between GNN
// aggregation layers. −0 and NaN are not below zero and pass unchanged.
// The comparison becomes a mask over the value's bits instead of a branch:
// the sign of a feature is a coin flip, and the mispredicted branch cost
// more than the loop's loads and stores.
func relu(m *dense.Matrix) {
	d := m.Data
	for i, v := range d {
		var neg uint64
		if v < 0 {
			neg = 1
		}
		d[i] = math.Float64frombits(math.Float64bits(v) &^ -neg)
	}
}

// carryAssignment maps a plan's per-tile hot/cold decision onto a freshly
// tiled grid of a mutated matrix. Tiles keep the decision made for their
// (TR, TC) position at plan time; tiles that did not exist then (edits
// populated an empty region) default to cold — the cold pool's untiled
// traversal absorbs new structure without a re-plan, which is exactly the
// gradual degradation the drift trigger watches for.
func carryAssignment(plan *hotcore.Prep, g *tile.Grid) []bool {
	hotAt := make(map[[2]int]bool, len(plan.Grid.Tiles))
	for i := range plan.Grid.Tiles {
		t := &plan.Grid.Tiles[i]
		hotAt[[2]int{t.TR, t.TC}] = plan.Partition.Hot[i]
	}
	hot := make([]bool, len(g.Tiles))
	for i := range g.Tiles {
		hot[i] = hotAt[[2]int{g.Tiles[i].TR, g.Tiles[i].TC}]
	}
	return hot
}
