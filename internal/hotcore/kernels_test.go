package hotcore

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/model"
)

func TestPreprocessOptsSpMV(t *testing.T) {
	m := testMatrix(t, 41, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := preprocess(m, &a, Options{
		Strategy: StrategyHotTiles,
		Kernel:   model.KernelSpMV,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// SpMV (K=1) moves far less dense traffic, so the predicted runtime
	// must be well below the SpMM plan's for the same matrix.
	spmm, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Partition.Predicted >= spmm.Partition.Predicted {
		t.Fatalf("SpMV predicted %.3e not below SpMM %.3e",
			p.Partition.Predicted, spmm.Partition.Predicted)
	}
}

func TestPreprocessOptsSDDMM(t *testing.T) {
	m := testMatrix(t, 42, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := preprocess(m, &a, Options{
		Strategy: StrategyHotTiles,
		Kernel:   model.KernelSDDMM,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Partition.Predicted <= 0 {
		t.Fatal("no prediction")
	}
}

func TestPreprocessOptsDefaultsOpsPerMAC(t *testing.T) {
	m := testMatrix(t, 43, 256, 32, 800, 400)
	a := smallArch()
	viaDefault, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if viaDefault.Partition.Predicted != explicit.Partition.Predicted {
		t.Fatal("OpsPerMAC default differs from plain SpMM's 2")
	}
}

func TestPreprocessOptsRejectsBadKernel(t *testing.T) {
	m := testMatrix(t, 44, 256, 32, 800, 400)
	a := smallArch()
	if _, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, Kernel: model.Kernel(42)}); err == nil {
		t.Fatal("expected unknown-kernel error")
	}
}

func TestPreprocessOptsPIUMAKernels(t *testing.T) {
	m := testMatrix(t, 45, 512, 64, 3000, 1500)
	a := arch.PIUMA()
	a.TileH, a.TileW = 64, 64
	for _, k := range []model.Kernel{model.KernelSpMM, model.KernelSpMV, model.KernelSDDMM} {
		p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, Kernel: k})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
}
