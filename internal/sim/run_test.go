package sim

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/partition"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// testSetup builds a matrix with IMH (dense block + sparse background), a
// grid, and a HotTiles partitioning for the given architecture.
func testSetup(t testing.TB, a *arch.Arch, seed int64) (*tile.Grid, *partition.Result, *sparse.COO) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 8 * a.TileH
	m := sparse.NewCOO(n, 0)
	blockN := a.TileH
	for i := 0; i < 40*blockN; i++ {
		m.Append(int32(rng.Intn(blockN)), int32(rng.Intn(blockN)), rng.Float64()+0.5)
	}
	for i := 0; i < 2*n; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64()+0.5)
	}
	m.SortRowMajor()
	m.DedupSum()
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		t.Fatal(err)
	}
	res := hotTiles(t, g, a.Config(2))
	return g, &res, m
}

// hotTiles partitions g with the HotTiles strategy.
func hotTiles(tb testing.TB, g *tile.Grid, cfg partition.Config) partition.Result {
	tb.Helper()
	es, err := partition.NewEstimates(g, &cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := partition.Run(es, cfg, partition.HotTiles, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func scaledArch(base arch.Arch, tileSize int) arch.Arch {
	base.TileH, base.TileW = tileSize, tileSize
	return base
}

func TestRunFunctionalMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    arch.Arch
	}{
		{"SPADE-Sextans", scaledArch(arch.SpadeSextans(4), 64)},
		{"PIUMA", scaledArch(arch.PIUMA(), 64)},
		{"SPADE-Sextans+PCIe", scaledArch(arch.SpadeSextansPCIe(), 64)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g, res, m := testSetup(t, &tc.a, 1)
			rng := rand.New(rand.NewSource(2))
			din := dense.NewRandom(rng, m.N, tc.a.K)
			r, err := Run(g, res.Hot, &tc.a, din, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := dense.NewMatrix(m.N, tc.a.K)
			if err := dense.SpMM(m, din, want); err != nil {
				t.Fatal(err)
			}
			if !r.Output.AlmostEqual(want, 1e-9) {
				d, _ := r.Output.MaxAbsDiff(want)
				t.Fatalf("simulated output differs from reference by %g", d)
			}
			if r.Time <= 0 {
				t.Fatal("non-positive simulated time")
			}
		})
	}
}

func TestRunSerialVsParallel(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, m := testSetup(t, &a, 3)
	din := dense.NewRandom(rand.New(rand.NewSource(4)), m.N, a.K)

	par, err := Run(g, res.Hot, &a, din, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := Run(g, res.Hot, &a, din, Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	// Functional results agree regardless of execution mode.
	if !par.Output.AlmostEqual(ser.Output, 1e-9) {
		t.Fatal("serial and parallel outputs differ")
	}
	// Serial pays no merge; parallel heterogeneous on SPADE-Sextans does.
	if ser.MergeTime != 0 {
		t.Fatal("serial run charged a merge")
	}
	anyHot := false
	for _, h := range res.Hot {
		anyHot = anyHot || h
	}
	if anyHot && par.MergeTime <= 0 {
		t.Fatal("parallel heterogeneous run did not charge a merge")
	}
	// Per-pool traffic must not depend on the mode.
	if abs(par.HotBytes-ser.HotBytes) > 1 || abs(par.ColdBytes-ser.ColdBytes) > 1 {
		t.Fatalf("traffic differs across modes: %+v vs %+v", par, ser)
	}
}

func TestRunPIUMANoMerge(t *testing.T) {
	a := scaledArch(arch.PIUMA(), 64)
	g, res, m := testSetup(t, &a, 5)
	din := dense.NewRandom(rand.New(rand.NewSource(6)), m.N, a.K)
	r, err := Run(g, res.Hot, &a, din, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MergeTime != 0 {
		t.Fatal("PIUMA's atomic engine removes the merge")
	}
}

func TestRunHomogeneousNoMerge(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, _, m := testSetup(t, &a, 7)
	din := dense.NewRandom(rand.New(rand.NewSource(8)), m.N, a.K)
	for _, hot := range [][]bool{partition.AllCold(g), partition.AllHot(g)} {
		r, err := Run(g, hot, &a, din, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.MergeTime != 0 {
			t.Fatal("homogeneous run charged a merge")
		}
	}
}

func TestRunHotOnlySlowerOnSparseMatrix(t *testing.T) {
	// The paper's headline observation (Figs 10/11): for sparse matrices,
	// streaming full dense tiles makes HotOnly far slower than ColdOnly.
	a := scaledArch(arch.SpadeSextans(4), 64)
	rng := rand.New(rand.NewSource(9))
	n := 16 * a.TileH
	m := sparse.NewCOO(n, 4*n)
	for i := 0; i < 4*n; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	m.SortRowMajor()
	m.DedupSum()
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		t.Fatal(err)
	}
	hotOnly, err := Run(g, partition.AllHot(g), &a, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	coldOnly, err := Run(g, partition.AllCold(g), &a, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	if hotOnly.Time < 3*coldOnly.Time {
		t.Fatalf("HotOnly %.3e should be ≫ ColdOnly %.3e on a sparse matrix",
			hotOnly.Time, coldOnly.Time)
	}
}

func TestRunHotOnlyFasterOnDenseMatrix(t *testing.T) {
	// ... and the reverse for dense matrices (the paper's myc case).
	a := scaledArch(arch.SpadeSextans(4), 64)
	rng := rand.New(rand.NewSource(10))
	n := 4 * a.TileH
	m := sparse.NewCOO(n, 0)
	for i := 0; i < 60*n; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	m.SortRowMajor()
	m.DedupSum()
	g, err := tile.Partition(m, a.TileH, a.TileW)
	if err != nil {
		t.Fatal(err)
	}
	hotOnly, err := Run(g, partition.AllHot(g), &a, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	coldOnly, err := Run(g, partition.AllCold(g), &a, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	if hotOnly.Time >= coldOnly.Time {
		t.Fatalf("HotOnly %.3e should beat ColdOnly %.3e on a dense matrix",
			hotOnly.Time, coldOnly.Time)
	}
}

func TestRunGSpMMSemiring(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, m := testSetup(t, &a, 11)
	din := dense.NewRandom(rand.New(rand.NewSource(12)), m.N, a.K)
	sr := semiring.Scaled(semiring.PlusTimes(), 8)
	r, err := Run(g, res.Hot, &a, din, Options{Semiring: &sr})
	if err != nil {
		t.Fatal(err)
	}
	want := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(m, din, want); err != nil {
		t.Fatal(err)
	}
	if !r.Output.AlmostEqual(want, 1e-9) {
		t.Fatal("scaled semiring changed the numeric result")
	}
	// Heavier semirings must take at least as long.
	plain, err := Run(g, res.Hot, &a, din, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Time < plain.Time {
		t.Fatalf("AI-8 run (%.3e) faster than plain (%.3e)", r.Time, plain.Time)
	}
}

func TestRunStats(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, m := testSetup(t, &a, 13)
	r, err := Run(g, res.Hot, &a, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalBytes() <= 0 || r.BandwidthUtil() <= 0 {
		t.Fatal("no traffic recorded")
	}
	if r.BandwidthUtil() > a.BWBytes*1.0001 {
		t.Fatalf("utilization %.3g exceeds system bandwidth %.3g", r.BandwidthUtil(), a.BWBytes)
	}
	if r.CacheLinesPerNNZ(m.NNZ()) <= 0 {
		t.Fatal("no lines per nonzero")
	}
	if r.CacheLinesPerNNZ(0) != 0 {
		t.Fatal("zero nnz should report 0")
	}
	hotAny := false
	for _, h := range res.Hot {
		hotAny = hotAny || h
	}
	if hotAny && (r.HotGFLOPs() <= 0 || r.ColdGFLOPs() <= 0) {
		t.Fatalf("pool GFLOP/s: hot %g cold %g", r.HotGFLOPs(), r.ColdGFLOPs())
	}
	empty := &Result{}
	if empty.HotGFLOPs() != 0 || empty.ColdGFLOPs() != 0 || empty.BandwidthUtil() != 0 {
		t.Fatal("empty result stats should be zero")
	}
}

func TestRunValidation(t *testing.T) {
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, res, m := testSetup(t, &a, 14)
	din := dense.NewRandom(rand.New(rand.NewSource(15)), m.N, a.K)

	if _, err := Run(g, res.Hot[:1], &a, din, Options{}); err == nil {
		t.Fatal("expected assignment-length error")
	}
	bad := a
	bad.BWBytes = 0
	if _, err := Run(g, res.Hot, &bad, din, Options{}); err == nil {
		t.Fatal("expected arch validation error")
	}
	if _, err := Run(g, res.Hot, &a, dense.NewMatrix(3, 3), Options{}); err == nil {
		t.Fatal("expected din shape error")
	}
	if _, err := Run(g, res.Hot, &a, nil, Options{}); err == nil {
		t.Fatal("expected nil din error")
	}
	// Hot tiles but no hot pool.
	skew := scaledArch(arch.SpadeSextansSkewed(8, 0), 64)
	if _, err := Run(g, partition.AllHot(g), &skew, nil, Options{SkipFunctional: true}); err == nil {
		t.Fatal("expected no-hot-workers error")
	}
	skew2 := scaledArch(arch.SpadeSextansSkewed(0, 8), 64)
	if _, err := Run(g, partition.AllCold(g), &skew2, nil, Options{SkipFunctional: true}); err == nil {
		t.Fatal("expected no-cold-workers error")
	}
}

func TestRunColdCacheReducesTraffic(t *testing.T) {
	// The simulated cold cache captures Din reuse the model ignores: with
	// the cache disabled, cold traffic must grow.
	a := scaledArch(arch.SpadeSextans(4), 64)
	g, _, _ := testSetup(t, &a, 16)
	cold := partition.AllCold(g)
	with, err := Run(g, cold, &a, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	noCache := a
	noCache.ColdCacheBytes = 0
	without, err := Run(g, cold, &noCache, nil, Options{SkipFunctional: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.ColdBytes >= without.ColdBytes {
		t.Fatalf("cache did not reduce traffic: %.3g vs %.3g", with.ColdBytes, without.ColdBytes)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
