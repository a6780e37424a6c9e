// Solver/gSpMM: a finite-element matrix (Serena-like block 3D stencil)
// multiplied under generalized semirings of growing arithmetic intensity on
// the SPADE-Sextans+PCIe architecture — the paper's Figure 14 scenario. At
// low intensity the on-chip SPADE PEs absorb nearly everything (PCIe makes
// streaming to the off-die Sextans expensive); as the monoids get heavier
// the enhanced Sextans, which retires 20 nonzeros per cycle regardless of
// intensity, takes over.
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
	// A Serena-like FEM matrix: 3D stencil with 2x2 unknown blocks.
	m := gen.Stencil3D(22, 22, 22, 2)
	fmt.Printf("FEM matrix: %d rows, %d nonzeros (%.1f per row)\n\n",
		m.N, m.NNZ(), float64(m.NNZ())/float64(m.N))

	a := hottiles.SpadeSextansPCIe()
	a.TileH, a.TileW = 256, 256

	rng := rand.New(rand.NewSource(9))
	din := hottiles.NewDense(m.N, a.K)
	for i := range din.Data {
		din.Data[i] = rng.Float64()
	}

	fmt.Printf("%10s%14s%12s%14s%14s\n",
		"ops/nnz", "HotTiles ms", "hot nnz %", "ColdOnly ms", "HotOnly ms")
	for _, factor := range []int{1, 4, 16, 64, 256} {
		// A gSpMM semiring whose ⊗ costs `factor` times the plain multiply.
		sr := hottiles.ScaledSemiring(hottiles.PlusTimes(), factor)

		times := map[hottiles.Strategy]float64{}
		var frac float64
		for _, s := range []hottiles.Strategy{
			hottiles.StrategyHotTiles, hottiles.StrategyColdOnly, hottiles.StrategyHotOnly,
		} {
			plan, err := hottiles.PartitionCtx(context.Background(), m, &a, hottiles.PartitionOptions{
				Strategy: s, OpsPerMAC: sr.OpsPerMAC,
			})
			if err != nil {
				log.Fatal(err)
			}
			res, err := hottiles.Simulate(plan, &a, din, hottiles.SimOptions{
				Serial:         plan.Partition.Serial,
				Semiring:       &sr,
				SkipFunctional: s != hottiles.StrategyHotTiles,
			})
			if err != nil {
				log.Fatal(err)
			}
			times[s] = res.Time
			if s == hottiles.StrategyHotTiles {
				_, frac = plan.Partition.HotNNZ(plan.Grid)
				// The heavier semiring must still produce the plain product
				// (Scaled only burns cycles).
				want, err := hottiles.GReference(m, din, sr)
				if err != nil {
					log.Fatal(err)
				}
				if d, _ := res.Output.MaxAbsDiff(want); d > 1e-9 {
					log.Fatalf("gSpMM diverged by %g", d)
				}
			}
		}
		fmt.Printf("%10.0f%14.4f%11.0f%%%14.4f%14.4f\n",
			sr.OpsPerMAC, times[hottiles.StrategyHotTiles]*1e3, frac*100,
			times[hottiles.StrategyColdOnly]*1e3, times[hottiles.StrategyHotOnly]*1e3)
	}
	fmt.Println("\nAs intensity grows, work migrates across the PCIe link to the")
	fmt.Println("enhanced Sextans and the ColdOnly execution becomes compute-bound.")
}
