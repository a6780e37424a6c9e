// Quickstart: partition one sparse matrix with HotTiles and simulate the
// heterogeneous execution, comparing against the homogeneous and
// IMH-unaware baselines — the 60-second tour of the library.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	hottiles "repro"
	"repro/internal/gen"
)

func main() {
	// A matrix with strong intra-matrix heterogeneity: dense citation-style
	// communities on the diagonal over a sparse background (the paper's
	// "pap" structure).
	rng := rand.New(rand.NewSource(42))
	m := gen.BlockCommunity(rng, 4096, 96, 0.6, 6)
	fmt.Printf("matrix: %d rows, %d nonzeros, density %.2e\n\n", m.N, m.NNZ(), m.Density())

	// The baseline SPADE-Sextans architecture (Table IV, scale 4), with a
	// tile size matched to this small demo matrix.
	a := hottiles.SpadeSextans(4)
	a.TileH, a.TileW = 128, 128

	din := hottiles.NewDense(m.N, a.K)
	for i := range din.Data {
		din.Data[i] = rng.Float64()
	}
	want, err := hottiles.Reference(m, din)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s%14s%12s%16s\n", "strategy", "runtime (ms)", "hot nnz %", "max |err|")
	for _, s := range []hottiles.Strategy{
		hottiles.StrategyColdOnly,
		hottiles.StrategyHotOnly,
		hottiles.StrategyIUnaware,
		hottiles.StrategyHotTiles,
	} {
		plan, err := hottiles.PartitionCtx(context.Background(), m, &a, hottiles.PartitionOptions{
			Strategy: s, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := hottiles.Simulate(plan, &a, din, hottiles.SimOptions{
			Serial: plan.Partition.Serial,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Every strategy must produce the exact same numeric result.
		diff, err := res.Output.MaxAbsDiff(want)
		if err != nil {
			log.Fatal(err)
		}
		_, frac := plan.Partition.HotNNZ(plan.Grid)
		fmt.Printf("%-10s%14.4f%11.0f%%%16.2e\n", s, res.Time*1e3, frac*100, diff)
	}
	fmt.Println("\nHotTiles routes the dense communities to the Sextans streamer and")
	fmt.Println("the sparse background to the latency-tolerant SPADE PEs.")
}
