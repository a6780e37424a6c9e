package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/semiring"
	"repro/internal/tile"
)

// benchEnginePools builds a deterministic synthetic workload shaped like a
// real heterogeneous run: a large cold pool of bandwidth-hungry row chunks
// and a small hot pool of two-phase tile units. Sizes are chosen so the
// event loop takes thousands of steps — enough for the steady-state step
// cost (allocation behavior included) to dominate setup.
func benchEnginePools() []*pool {
	// Tiny deterministic LCG; the engine benchmark must not depend on
	// math/rand's global state or version-specific stream.
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	cold := &pool{name: "cold", workers: 16, perWorkerBW: 12e9}
	for i := 0; i < 1024; i++ {
		cold.units = append(cold.units, unitOf(1e6,
			phase{compute: 0.5e-6 + next()*2e-6, bytes: 0.2e6 + next()*1.0e6}))
	}
	hot := &pool{name: "hot", workers: 4, perWorkerBW: 60e9, linkBW: 120e9}
	for i := 0; i < 256; i++ {
		hot.units = append(hot.units, unitOf(4e6,
			phase{compute: 1e-6 + next()*4e-6, bytes: 0.5e6 + next()*2.5e6},
			phase{bytes: 0.1e6 + next()*0.4e6}))
	}
	return []*pool{cold, hot}
}

// BenchmarkEngine is the engine-dominated microbenchmark BENCH_*.json
// tracks: one full event-loop run over the synthetic heterogeneous
// workload, bandwidth-saturated so every step exercises allocation.
func BenchmarkEngine(b *testing.B) {
	pools := benchEnginePools()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := runEngine(pools, 150e9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineComputeBound drives the same workload with abundant
// bandwidth: most steps complete compute counters without changing the
// demanding set, the case the grant-invalidation fast path targets.
func BenchmarkEngineComputeBound(b *testing.B) {
	pools := benchEnginePools()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := runEngine(pools, 4e12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaterfill pins the cost of one max-min allocation round over a
// mixed claimant set.
func BenchmarkWaterfill(b *testing.B) {
	caps := make([]float64, 64)
	for i := range caps {
		caps[i] = float64(1+i%7) * 1e9
	}
	e := &engine{unsat: make([]int32, len(caps))}
	grants := make([]float64, len(caps))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.waterfill(caps, grants, 100e9)
	}
	if math.IsNaN(grants[0]) {
		b.Fatal("unexpected NaN")
	}
}

// BenchmarkRunnerReuse quantifies the multi-run engine stack on a fixed
// (grid, assignment, architecture): "fresh" constructs a new Runner per run
// (the pre-PR-9 sim.Run cost without the free list), "reused" amortizes one
// Runner's scratch across runs, and "unitcache" additionally memoizes the
// built unit pools — the GNN-layer / batch shape where construction
// (including the cold cache-model replay) drops out entirely.
func BenchmarkRunnerReuse(b *testing.B) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, _ := testSetup(b, &a, 61)
	opts := Options{SkipFunctional: true}
	b.Run("fresh", func(b *testing.B) {
		var out Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := (&Runner{}).RunInto(&out, g, res.Hot, &a, nil, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		r := &Runner{}
		var out Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := r.RunInto(&out, g, res.Hot, &a, nil, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unitcache", func(b *testing.B) {
		r := &Runner{}
		var units UnitCache
		cached := opts
		cached.Units = &units
		var out Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := r.RunInto(&out, g, res.Hot, &a, nil, cached); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExecute tracks the functional gSpMM: a RunInto with memoized
// unit pools on a fixed 4096-row power-law grid, so the run is dominated by
// executeTile and the merge. "plustimes" takes the semiring's inlined row
// kernel; "generic" computes the same algebra through a hand-built
// Semiring, two closure calls per multiply-accumulate.
func BenchmarkExecute(b *testing.B) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	m := gen.PowerLaw(rand.New(rand.NewSource(1)), 4096, 16, 2.2)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		b.Fatal(err)
	}
	part := hotTiles(b, g, a.Config(2))
	din := dense.NewRandom(rand.New(rand.NewSource(2)), g.N, a.K)
	for _, tc := range []struct {
		name string
		sr   semiring.Semiring
	}{
		{"plustimes", semiring.PlusTimes()},
		{"generic", genericPlusTimes()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r := &Runner{}
			var units UnitCache
			opts := Options{Serial: part.Serial, Semiring: &tc.sr, Units: &units}
			var out Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.RunInto(&out, g, part.Hot, &a, din, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdPool tracks cold-pool construction alone: one
// buildColdPoolInto of an all-cold 4096-row power-law grid on
// SPADE-Sextans, over reused pool and scratch, so the run is dominated by
// the per-PE cache-model replay of every nonzero's Din access.
func BenchmarkColdPool(b *testing.B) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	m := gen.PowerLaw(rand.New(rand.NewSource(1)), 4096, 16, 2.2)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		b.Fatal(err)
	}
	hot := make([]bool, len(g.Tiles))
	prm := model.Params{K: a.K, OpsPerMAC: 2}
	var p pool
	var s coldScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildColdPoolInto(&p, &s, g, hot, &a, prm)
	}
}
