package hottiles

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gen"
)

func demoMatrix(seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	return gen.BlockCommunity(rng, 1024, 64, 0.5, 4)
}

func demoArch() Arch {
	a := SpadeSextans(4)
	a.TileH, a.TileW = 128, 128
	return a
}

func TestPartitionAndSimulateEndToEnd(t *testing.T) {
	m := demoMatrix(1)
	a := demoArch()
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	din := NewDense(m.N, a.K)
	for i := range din.Data {
		din.Data[i] = 1
	}
	res, err := Simulate(plan, &a, din, SimOptions{Serial: plan.Partition.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(m, din)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := res.Output.MaxAbsDiff(want)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-9 {
		t.Fatalf("simulated result differs from reference by %g", diff)
	}
	if res.Time <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestSimulateGuards(t *testing.T) {
	m := demoMatrix(2)
	a := demoArch()
	if _, err := Simulate(nil, &a, nil, SimOptions{}); err == nil {
		t.Fatal("expected nil-plan error")
	}
	p := PIUMA()
	p.TileH, p.TileW = 128, 128
	plan, err := PartitionCtx(context.Background(), m, &p, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(plan, &p, nil, SimOptions{Serial: true}); err == nil {
		t.Fatal("expected serial-on-PIUMA error")
	}
}

func TestMatrixMarketRoundTripViaFacade(t *testing.T) {
	m := demoMatrix(3)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() || back.N != m.N {
		t.Fatal("round trip changed shape")
	}
}

func TestGReferenceMinPlus(t *testing.T) {
	m := demoMatrix(4)
	din := NewDense(m.N, 4)
	for i := range din.Data {
		din.Data[i] = 1
	}
	out, err := GReference(m, din, MinPlus())
	if err != nil {
		t.Fatal(err)
	}
	if out.N != m.N || out.K != 4 {
		t.Fatal("bad shape")
	}
}

func TestCalibrateViaFacade(t *testing.T) {
	a := demoArch()
	reports, err := Calibrate(&a, []*Matrix{demoMatrix(5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports", len(reports))
	}
}

func TestIsoScaleExploreViaFacade(t *testing.T) {
	entries, err := IsoScaleExplore(demoMatrix(6), 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("%d entries, want 5", len(entries))
	}
}

func TestBenchmarkSuitesExposed(t *testing.T) {
	if len(Benchmarks()) != 10 || len(DenseBenchmarks()) != 5 {
		t.Fatal("suites wrong")
	}
	if _, ok := BenchmarkByShort("kro"); !ok {
		t.Fatal("ByShort broken")
	}
}

func TestStrategiesAndHeuristicsExposed(t *testing.T) {
	if StrategyHotTiles.String() != "HotTiles" {
		t.Fatal("strategy constants wrong")
	}
	if MinByteSerial.String() != "MinByte Serial" {
		t.Fatal("heuristic constants wrong")
	}
	for _, s := range []Semiring{PlusTimes(), MinPlus(), MaxPlus(), BoolOrAnd()} {
		if s.Name == "" {
			t.Fatal("semiring unnamed")
		}
	}
	if ScaledSemiring(PlusTimes(), 4).OpsPerMAC != 8 {
		t.Fatal("scaled semiring wrong")
	}
}
