package hotcore

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/sparse"
)

// preprocess is PreprocessCtx under a context that is never canceled.
func preprocess(m *sparse.COO, a *arch.Arch, o Options) (*Prep, error) {
	return PreprocessCtx(context.Background(), m, a, o)
}

func testMatrix(t testing.TB, seed int64, n, blockN, blockNNZ, bgNNZ int) *sparse.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := sparse.NewCOO(n, blockNNZ+bgNNZ)
	for i := 0; i < blockNNZ; i++ {
		m.Append(int32(rng.Intn(blockN)), int32(rng.Intn(blockN)), rng.Float64()+0.5)
	}
	for i := 0; i < bgNNZ; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), rng.Float64()+0.5)
	}
	m.SortRowMajor()
	m.DedupSum()
	return m
}

// smallArch returns a SPADE-Sextans-like architecture with a tile size that
// suits the small test matrices.
func smallArch() arch.Arch {
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = 64, 64
	return a
}

func TestPreprocessHotTilesPartitionsMatrix(t *testing.T) {
	m := testMatrix(t, 1, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Hot.NNZ() == 0 {
		t.Fatal("expected some hot tiles for a matrix with a dense block")
	}
	if p.Cold == nil || p.Cold.NNZ() == 0 {
		t.Fatal("expected some cold nonzeros")
	}
	if p.Cold.NNZ()+p.Hot.NNZ() != m.NNZ() {
		t.Fatal("sections do not partition the matrix")
	}
	// SPADE-Sextans consumes COO on both sides.
	if p.ColdCSR != nil || p.Hot.CSR {
		t.Fatal("wrong formats for SPADE-Sextans")
	}
}

func TestPreprocessPIUMACSRFormats(t *testing.T) {
	m := testMatrix(t, 2, 512, 64, 3000, 1500)
	a := arch.PIUMA()
	a.TileH, a.TileW = 64, 64
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ColdCSR == nil || p.Cold != nil {
		t.Fatal("PIUMA cold section must be CSR")
	}
	if !p.Hot.CSR {
		t.Fatal("PIUMA hot section must be tiled CSR")
	}
	for b, ptr := range p.Hot.RowPtr {
		if len(ptr) != 64+1 && p.Hot.Blocks[b].TR != p.Grid.NumTR-1 {
			t.Fatalf("block %d row pointer length %d", b, len(ptr))
		}
	}
}

func TestPreprocessStrategies(t *testing.T) {
	m := testMatrix(t, 3, 256, 32, 1000, 800)
	a := smallArch()
	for _, s := range []Strategy{StrategyHotTiles, StrategyIUnaware, StrategyHotOnly, StrategyColdOnly} {
		p, err := preprocess(m, &a, Options{Strategy: s, OpsPerMAC: 2, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		switch s {
		case StrategyHotOnly:
			if p.Cold.NNZ() != 0 {
				t.Fatalf("HotOnly left %d cold nonzeros", p.Cold.NNZ())
			}
		case StrategyColdOnly:
			if p.Hot.NNZ() != 0 {
				t.Fatalf("ColdOnly assigned %d hot nonzeros", p.Hot.NNZ())
			}
		}
		if p.Partition.Predicted <= 0 {
			t.Fatalf("%v: non-positive prediction", s)
		}
	}
	if _, err := preprocess(m, &a, Options{Strategy: Strategy(42), OpsPerMAC: 2}); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		StrategyHotTiles: "HotTiles", StrategyIUnaware: "IUnaware",
		StrategyHotOnly: "HotOnly", StrategyColdOnly: "ColdOnly",
	}
	for s, w := range names {
		if s.String() != w {
			t.Errorf("%d: %s", int(s), s.String())
		}
	}
	if Strategy(9).String() == "" {
		t.Error("fallback empty")
	}
}

func TestPreprocessValidation(t *testing.T) {
	a := smallArch()
	bad := sparse.NewCOO(4, 1)
	bad.Append(9, 0, 1) // out of range
	if _, err := preprocess(bad, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2}); err == nil {
		t.Fatal("expected matrix validation error")
	}
	m := testMatrix(t, 4, 128, 16, 200, 100)
	badArch := smallArch()
	badArch.BWBytes = 0
	if _, err := preprocess(m, &badArch, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2}); err == nil {
		t.Fatal("expected arch validation error")
	}
}

func TestTimingBreakdown(t *testing.T) {
	m := testMatrix(t, 5, 512, 64, 4000, 2000)
	a := smallArch()
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	tm := p.Timing
	if tm.Total() <= 0 {
		t.Fatal("no preprocessing time recorded")
	}
	if tm.Total() != tm.Scan+tm.Partition+tm.BaseFormat+tm.ExtraFormat {
		t.Fatal("Total() is not the sum of stages")
	}
	if tm.Overhead() != tm.Scan+tm.Partition+tm.ExtraFormat {
		t.Fatal("Overhead() wrong")
	}
}

// TestFunctionalEquivalence is the pipeline's core integration invariant:
// executing the hot section (tiled traversal) plus the cold section
// (untiled traversal) and merging the two private output buffers must
// reproduce the reference SpMM exactly up to summation order.
func TestFunctionalEquivalence(t *testing.T) {
	m := testMatrix(t, 6, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	din := dense.NewRandom(rng, m.N, a.K)

	// Reference.
	want := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(m, din, want); err != nil {
		t.Fatal(err)
	}

	// Cold buffer: untiled row-ordered execution.
	coldBuf := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(p.Cold, din, coldBuf); err != nil {
		t.Fatal(err)
	}

	// Hot buffer: tiled traversal over the hot blocks.
	hotBuf := dense.NewMatrix(m.N, a.K)
	for _, b := range p.Hot.Blocks {
		for i := range b.Vals {
			r, c, v := b.Rows[i], b.Cols[i], b.Vals[i]
			in := din.Row(int(c))
			out := hotBuf.Row(int(r))
			for j := range out {
				out[j] += v * in[j]
			}
		}
	}

	// Merger module.
	if err := dense.Merge(coldBuf, hotBuf); err != nil {
		t.Fatal(err)
	}
	if !coldBuf.AlmostEqual(want, 1e-9) {
		d, _ := coldBuf.MaxAbsDiff(want)
		t.Fatalf("partitioned execution differs from reference by %g", d)
	}
}
