package hottiles

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (BenchmarkStudies/<name>, one per registered study; see
// DESIGN.md §7 for the experiment index) plus microbenchmarks of the
// pipeline stages and the ablations DESIGN.md §8 calls out. Experiment
// benches run the full study at a coarse matrix scale per iteration;
// `go run ./cmd/spmmsim -scale 64 all` prints the full-scale numbers that
// EXPERIMENTS.md records.

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/arch"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/sim"
	"repro/internal/tile"
)

// benchScale keeps one experiment iteration around a second.
const benchScale = 512

func newEnv(i int) *experiments.Env {
	return experiments.NewEnv(benchScale, int64(i+1))
}

// BenchmarkStudies runs every registered study (experiments.Studies) once
// per iteration, each on a fresh Env, as sub-benchmark Studies/<name>.
func BenchmarkStudies(b *testing.B) {
	for _, st := range experiments.Studies {
		st := st
		b.Run(st.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := st.Run(context.Background(), newEnv(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExperimentsFanout pins the wall-clock effect of the parallel
// experiments engine: the same strategy study on fresh Envs, once serial
// and once on the GOMAXPROCS-sized pool. With GOMAXPROCS >= 4 the parallel
// variant is expected to run at least 2x faster; on a single core the two
// collapse to the same serial execution (and identical results — see
// TestParallelStudyMatchesSerial).
//
// Each variant starts from a freshly collected heap. Without that, whichever
// sub-benchmark runs second inherits the first one's garbage and GC-pacing
// state and measures tens of milliseconds slower on identical work — the
// "parallel slower than serial" inversion recorded in BENCH_8.json was
// exactly this ordering artifact, not a property of the pool
// (TestFanoutParity holds the two variants to a noise bound).
func BenchmarkExperimentsFanout(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			defer par.SetWorkers(par.SetWorkers(cfg.workers))
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := newEnv(i).Fig10(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpMMParallel pins the row-panel fan-out of the functional SpMM
// kernel itself (PR 9): the same matrix·dense product once on a single
// worker (the serial inner loop) and once over the GOMAXPROCS pool in
// row-boundary-aligned panels. The outputs are bit-identical by
// construction (TestPanelParallelBitIdentical); this tracks the wall-clock
// side of that contract.
func BenchmarkSpMMParallel(b *testing.B) {
	m := benchMatrix()
	din := NewDense(m.N, 32)
	for i := range din.Data {
		din.Data[i] = 1
	}
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			defer par.SetWorkers(par.SetWorkers(cfg.workers))
			b.SetBytes(int64(m.NNZ()) * 32 * 8)
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Reference(m, din); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsDisabled pins the observability layer's no-op overhead: the
// same study as BenchmarkExperimentsFanout with no tracer attached (every
// span call is a nil check) versus with a live tracer. Compare the
// "disabled" sub-benchmark against BenchmarkExperimentsFanout from before
// internal/obs existed — the contract is <2% drift; the "enabled" variant
// bounds the cost of tracing itself.
func BenchmarkObsDisabled(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		traced bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := newEnv(i)
				if cfg.traced {
					e.SetTracer(obs.New("bench"))
				}
				if _, err := e.Fig10(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Pipeline-stage microbenchmarks -----------------------------------

func benchMatrix() *Matrix {
	rng := rand.New(rand.NewSource(1))
	return gen.BlockCommunity(rng, 16384, 96, 0.6, 8)
}

func BenchmarkTilePartition(b *testing.B) {
	m := benchMatrix()
	b.SetBytes(int64(m.NNZ() * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tile.Partition(m, 512, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelEstimateGrid(b *testing.B) {
	m := benchMatrix()
	g, err := tile.Partition(m, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	a := arch.SpadeSextans(4)
	p := model.Params{K: 32, OpsPerMAC: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.EstimateGrid(&a.Hot, g, p)
		model.EstimateGrid(&a.Cold, g, p)
	}
}

// runStrategy partitions g with strategy s as the preprocessing pipeline
// does: the model's estimates, then partition.Run.
func runStrategy(tb testing.TB, g *tile.Grid, cfg partition.Config, s partition.Strategy, seed int64) partition.Result {
	tb.Helper()
	es, err := partition.NewEstimates(g, &cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := partition.Run(es, cfg, s, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func BenchmarkPartitionHotTiles(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		b.Fatal(err)
	}
	cfg := a.Config(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStrategy(b, g, cfg, partition.HotTiles, 0)
	}
}

func BenchmarkPartitionIUnaware(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		b.Fatal(err)
	}
	cfg := a.Config(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStrategy(b, g, cfg, partition.IUnaware, int64(i))
	}
}

func BenchmarkPreprocessPipeline(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		_ = plan
	}
}

func BenchmarkSimulateHeterogeneous(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		b.Fatal(err)
	}
	res := runStrategy(b, g, a.Config(2), partition.HotTiles, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(g, res.Hot, &a, nil, sim.Options{SkipFunctional: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceSpMM(b *testing.B) {
	m := benchMatrix()
	din := NewDense(m.N, 32)
	for i := range din.Data {
		din.Data[i] = 1
	}
	b.SetBytes(int64(m.NNZ()) * 32 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reference(m, din); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §8) ------------------------------------------

// BenchmarkAblationHeuristics forces each of the four heuristics on the
// same matrix, reporting simulated runtime as the metric (ns of simulated
// time per op via custom metric).
func BenchmarkAblationHeuristics(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		b.Fatal(err)
	}
	cfg := a.Config(2)
	for _, h := range []partition.Heuristic{
		partition.MinTimeParallel, partition.MinTimeSerial,
		partition.MinByteParallel, partition.MinByteSerial,
	} {
		h := h
		b.Run(h.String(), func(b *testing.B) {
			var simTime float64
			for i := 0; i < b.N; i++ {
				res := runStrategy(b, g, cfg, partition.Forced(h), 0)
				r, err := sim.Run(g, res.Hot, &a, nil, sim.Options{Serial: res.Serial, SkipFunctional: true})
				if err != nil {
					b.Fatal(err)
				}
				simTime = r.Time
			}
			b.ReportMetric(simTime*1e6, "simulated-us")
		})
	}
}

// BenchmarkAblationColdCache compares the simulated cold execution with
// and without the per-PE cache the analytical model ignores.
func BenchmarkAblationColdCache(b *testing.B) {
	m := benchMatrix()
	for _, withCache := range []bool{true, false} {
		withCache := withCache
		name := "cache-on"
		if !withCache {
			name = "cache-off"
		}
		b.Run(name, func(b *testing.B) {
			a := arch.SpadeSextans(4)
			if !withCache {
				a.ColdCacheBytes = 0
			}
			g, err := tile.Partition(m, a.TileH, a.TileW)
			if err != nil {
				b.Fatal(err)
			}
			var simTime float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, partition.AllCold(g), &a, nil, sim.Options{SkipFunctional: true})
				if err != nil {
					b.Fatal(err)
				}
				simTime = r.Time
			}
			b.ReportMetric(simTime*1e6, "simulated-us")
		})
	}
}

// BenchmarkAblationTileSize sweeps the free tile dimension (§IV: the
// methodology can be applied iteratively to size free dimensions).
func BenchmarkAblationTileSize(b *testing.B) {
	m := benchMatrix()
	for _, ts := range []int{128, 256, 512, 1024} {
		ts := ts
		b.Run(strconv.Itoa(ts), func(b *testing.B) {
			a := arch.SpadeSextans(4)
			a.TileH, a.TileW = ts, ts
			a.Hot.ScratchpadBytes = ts * a.K * 4 * 4
			var simTime float64
			for i := 0; i < b.N; i++ {
				g, err := tile.Partition(m, ts, ts)
				if err != nil {
					b.Fatal(err)
				}
				res := runStrategy(b, g, a.Config(2), partition.HotTiles, 0)
				r, err := sim.Run(g, res.Hot, &a, nil, sim.Options{Serial: res.Serial, SkipFunctional: true})
				if err != nil {
					b.Fatal(err)
				}
				simTime = r.Time
			}
			b.ReportMetric(simTime*1e6, "simulated-us")
		})
	}
}

// --- Kernel and reordering extensions (paper §IX-D / §X) ----------------

func BenchmarkKernels(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	for _, kernel := range []model.Kernel{model.KernelSpMM, model.KernelSpMV, model.KernelSDDMM} {
		kernel := kernel
		b.Run(kernel.String(), func(b *testing.B) {
			ka := a
			if kernel == model.KernelSpMV {
				ka.K = 1
			}
			g, err := tile.Partition(m, ka.TileH, ka.TileW)
			if err != nil {
				b.Fatal(err)
			}
			cfg := ka.Config(2)
			cfg.Params.Kernel = kernel
			if kernel == model.KernelSpMV {
				cfg.Params.K = 1
			}
			res := runStrategy(b, g, cfg, partition.HotTiles, 0)
			var simTime float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(g, res.Hot, &ka, nil, sim.Options{
					Serial: res.Serial, Kernel: kernel, SkipFunctional: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				simTime = r.Time
			}
			b.ReportMetric(simTime*1e6, "simulated-us")
		})
	}
}

func BenchmarkAblationReorder(b *testing.B) {
	base := benchMatrix()
	variants := map[string]*Matrix{"original": base}
	if cl, err := reorder.Apply(base, reorder.BFSCluster(base)); err == nil {
		variants["bfs"] = cl
	}
	if sh, err := reorder.Apply(base, reorder.Random(base.N, 1)); err == nil {
		variants["shuffled"] = sh
	}
	for name, m := range variants {
		name, m := name, m
		b.Run(name, func(b *testing.B) {
			a := arch.SpadeSextans(4)
			g, err := tile.Partition(m, a.TileH, a.TileW)
			if err != nil {
				b.Fatal(err)
			}
			var simTime float64
			for i := 0; i < b.N; i++ {
				res := runStrategy(b, g, a.Config(2), partition.HotTiles, 0)
				r, err := sim.Run(g, res.Hot, &a, nil, sim.Options{Serial: res.Serial, SkipFunctional: true})
				if err != nil {
					b.Fatal(err)
				}
				simTime = r.Time
			}
			b.ReportMetric(simTime*1e6, "simulated-us")
		})
	}
}

func BenchmarkReorderPasses(b *testing.B) {
	m := benchMatrix()
	b.Run("degree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reorder.DegreeSort(m)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reorder.BFSCluster(m)
		}
	})
}

// --- Substrate microbenchmarks ------------------------------------------

func BenchmarkGenerators(b *testing.B) {
	cases := []struct {
		name string
		run  func(rng *rand.Rand) *Matrix
	}{
		{"powerlaw", func(rng *rand.Rand) *Matrix { return gen.PowerLaw(rng, 1<<14, 16, 2.1) }},
		{"rmat", func(rng *rand.Rand) *Matrix { return gen.RMAT(rng, 14, 16) }},
		{"community", func(rng *rand.Rand) *Matrix { return gen.BlockCommunity(rng, 1<<14, 96, 0.6, 8) }},
		{"mesh2d", func(rng *rand.Rand) *Matrix { return gen.Mesh2D(128, 128) }},
		{"stencil3d", func(rng *rand.Rand) *Matrix { return gen.Stencil3D(25, 25, 25, 1) }},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				m := c.run(rng)
				b.SetBytes(int64(m.NNZ() * 16))
			}
		})
	}
}

func BenchmarkMatrixMarketIO(b *testing.B) {
	m := benchMatrix()
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := WriteMatrixMarket(&w, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadMatrixMarket(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCalibrate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mats := []*Matrix{gen.Uniform(rng, 4096, 40000)}
	for i := 0; i < b.N; i++ {
		a := arch.SpadeSextans(4)
		a.TileH, a.TileW = 128, 128
		if _, err := Calibrate(&a, mats); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanSerialization(b *testing.B) {
	m := benchMatrix()
	a := arch.SpadeSextans(4)
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePlan(&buf, plan); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := WritePlan(&w, plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ReadPlan(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
