package hottiles_test

import (
	"context"
	"fmt"
	"math/rand"

	hottiles "repro"
	"repro/internal/gen"
)

// Example shows the canonical flow: build a matrix with intra-matrix
// heterogeneity, partition it with HotTiles for the baseline SPADE-Sextans
// architecture, simulate the heterogeneous execution, and verify the
// numeric result against the reference kernel.
func Example() {
	rng := rand.New(rand.NewSource(1))
	m := gen.BlockCommunity(rng, 2048, 64, 0.6, 4)

	a := hottiles.SpadeSextans(4)
	a.TileH, a.TileW = 128, 128

	plan, err := hottiles.PartitionCtx(context.Background(), m, &a, hottiles.PartitionOptions{
		Strategy: hottiles.StrategyHotTiles,
	})
	if err != nil {
		panic(err)
	}
	din := hottiles.NewDense(m.N, a.K)
	for i := range din.Data {
		din.Data[i] = 1
	}
	res, err := hottiles.Simulate(plan, &a, din, hottiles.SimOptions{Serial: plan.Partition.Serial})
	if err != nil {
		panic(err)
	}
	want, err := hottiles.Reference(m, din)
	if err != nil {
		panic(err)
	}
	diff, _ := res.Output.MaxAbsDiff(want)
	fmt.Printf("exact result: %v\n", diff < 1e-9)
	fmt.Printf("ran faster than predicted*10: %v\n", res.Time < plan.Partition.Predicted*10)
	// Output:
	// exact result: true
	// ran faster than predicted*10: true
}

// ExamplePartitionCtx demonstrates kernel selection: the same matrix
// partitioned for SDDMM, whose output is sparse.
func ExamplePartitionCtx() {
	rng := rand.New(rand.NewSource(2))
	m := gen.PowerLaw(rng, 2048, 8, 2.1)
	a := hottiles.SpadeSextans(4)
	a.TileH, a.TileW = 128, 128

	plan, err := hottiles.PartitionCtx(context.Background(), m, &a, hottiles.PartitionOptions{
		Strategy: hottiles.StrategyHotTiles,
		Kernel:   hottiles.KernelSDDMM,
	})
	if err != nil {
		panic(err)
	}
	emb := hottiles.NewDense(m.N, a.K)
	res, err := hottiles.Simulate(plan, &a, emb, hottiles.SimOptions{
		Serial: plan.Partition.Serial,
		Kernel: hottiles.KernelSDDMM,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("one value per nonzero: %v\n", len(res.SDDMM) == m.NNZ())
	// Output:
	// one value per nonzero: true
}

// ExampleCalibrate shows the §VI-B vis_lat fitting from profiling runs.
func ExampleCalibrate() {
	rng := rand.New(rand.NewSource(3))
	a := hottiles.SpadeSextans(4)
	a.TileH, a.TileW = 64, 64
	reports, err := hottiles.Calibrate(&a, []*hottiles.Matrix{
		gen.Uniform(rng, 2048, 20000),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("fitted %d worker types\n", len(reports))
	fmt.Printf("vis_lat positive: %v\n", reports[0].VisLat > 0 && reports[1].VisLat > 0)
	// Output:
	// fitted 2 worker types
	// vis_lat positive: true
}

// ExampleRunGNN chains a three-layer GNN forward pass over one amortized
// plan and checks the numerics against the reference SpMM chained by hand
// with the same ReLU between layers.
func ExampleRunGNN() {
	rng := rand.New(rand.NewSource(4))
	m := gen.BlockCommunity(rng, 2048, 64, 0.6, 4)
	a := hottiles.SpadeSextans(4)
	a.TileH, a.TileW = 128, 128
	features := hottiles.NewDense(m.N, a.K)
	for i := range features.Data {
		features.Data[i] = rng.Float64()*2 - 1
	}

	const layers = 3
	res, err := hottiles.RunGNN(context.Background(), m, &a, features, hottiles.GNNConfig{Layers: layers})
	if err != nil {
		panic(err)
	}

	// Reference: A·H with ReLU between layers, chained by hand.
	h := features.Clone()
	for layer := 0; layer < layers; layer++ {
		next, err := hottiles.Reference(m, h)
		if err != nil {
			panic(err)
		}
		if layer < layers-1 {
			for i, v := range next.Data {
				if v < 0 {
					next.Data[i] = 0
				}
			}
		}
		h = next
	}
	diff, _ := res.Output.MaxAbsDiff(h)
	fmt.Printf("layers simulated: %d\n", len(res.LayerTimes))
	fmt.Printf("matches hand-chained reference: %v\n", diff < 1e-9)
	fmt.Printf("per-layer cost amortized (layer 1 == layer 0): %v\n", res.LayerTimes[1] == res.LayerTimes[0])
	// Output:
	// layers simulated: 3
	// matches hand-chained reference: true
	// per-layer cost amortized (layer 1 == layer 0): true
}
