package workload

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// BenchmarkGNNForward tracks the amortized forward pass: one plan, four
// simulated layers, timing only (the functional execute path is
// BenchmarkExecute in internal/sim).
func BenchmarkGNNForward(b *testing.B) {
	m := gen.PowerLaw(rand.New(rand.NewSource(1)), 4096, 16, 2.2)
	a := smallArch()
	cfg := GNNConfig{Layers: 4, SkipFunctional: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GNN(context.Background(), m, &a, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvolveReplan tracks the evolving-graph driver's worst case:
// every edit batch re-tiles, re-estimates, re-partitions (Threshold 0) and
// re-simulates.
func BenchmarkEvolveReplan(b *testing.B) {
	m := gen.PowerLaw(rand.New(rand.NewSource(2)), 4096, 16, 2.2)
	a := smallArch()
	batches, err := EditStream(3, m, 4, 500, 100)
	if err != nil {
		b.Fatal(err)
	}
	cfg := EvolveConfig{Threshold: 0, SkipFunctional: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Evolve(context.Background(), m, &a, batches, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvolveSweep tracks the evolve study's shape: the full 7-threshold
// re-plan ladder over BenchmarkEvolveReplan's edit trajectory in one
// step-major sweep.
func BenchmarkEvolveSweep(b *testing.B) {
	m := gen.PowerLaw(rand.New(rand.NewSource(2)), 4096, 16, 2.2)
	a := smallArch()
	batches, err := EditStream(3, m, 4, 500, 100)
	if err != nil {
		b.Fatal(err)
	}
	ths := []float64{-1, 0.5, 0.2, 0.1, 0.05, 0.02, 0}
	cfg := EvolveConfig{SkipFunctional: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvolveSweep(context.Background(), m, &a, batches, ths, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
