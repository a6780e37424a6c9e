package workload

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/dense"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// testMatrix builds a matrix with a dense block (IMH) plus uniform
// background, like the hotcore tests do.
func testMatrix(t testing.TB, seed int64, n, blockN, blockNNZ, bgNNZ int) *sparse.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := sparse.NewCOO(n, 0)
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

func smallArch() arch.Arch {
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = 64, 64
	return a
}

// TestGNNChainsLayersAgainstReference pins the forward pass numerically:
// layer i+1 must consume ReLU(layer i's output), matching the reference
// SpMM chained by hand.
func TestGNNChainsLayersAgainstReference(t *testing.T) {
	m := testMatrix(t, 1, 512, 64, 3000, 1500)
	a := smallArch()
	features := dense.NewRandom(rand.New(rand.NewSource(2)), m.N, a.K)

	const layers = 3
	res, err := GNN(context.Background(), m, &a, features, GNNConfig{Layers: layers})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayerTimes) != layers {
		t.Fatalf("got %d layer times, want %d", len(res.LayerTimes), layers)
	}
	total := 0.0
	for i, lt := range res.LayerTimes {
		if lt <= 0 {
			t.Fatalf("layer %d: non-positive simulated time %g", i, lt)
		}
		// One plan, one timing model: every layer costs the same.
		if lt != res.LayerTimes[0] {
			t.Fatalf("layer %d time %g differs from layer 0 time %g under a shared plan",
				i, lt, res.LayerTimes[0])
		}
		total += lt
	}
	if total != res.SimTotal {
		t.Fatalf("SimTotal %g != sum of layer times %g", res.SimTotal, total)
	}

	// Reference: chain SpMM + ReLU by hand.
	h := features.Clone()
	for layer := 0; layer < layers; layer++ {
		next := dense.NewMatrix(m.N, a.K)
		if err := dense.SpMM(m, h, next); err != nil {
			t.Fatal(err)
		}
		if layer < layers-1 {
			relu(next)
		}
		h = next
	}
	if !res.Output.AlmostEqual(h, 1e-9) {
		d, _ := res.Output.MaxAbsDiff(h)
		t.Fatalf("GNN output differs from hand-chained reference by %g", d)
	}
}

func TestGNNNoReLUIsRepeatedSpMM(t *testing.T) {
	m := testMatrix(t, 3, 256, 64, 1500, 800)
	a := smallArch()
	features := dense.NewRandom(rand.New(rand.NewSource(4)), m.N, a.K)

	res, err := GNN(context.Background(), m, &a, features, GNNConfig{Layers: 2, NoReLU: true})
	if err != nil {
		t.Fatal(err)
	}
	h := features.Clone()
	for layer := 0; layer < 2; layer++ {
		next := dense.NewMatrix(m.N, a.K)
		if err := dense.SpMM(m, h, next); err != nil {
			t.Fatal(err)
		}
		h = next
	}
	if !res.Output.AlmostEqual(h, 1e-9) {
		t.Fatal("NoReLU output is not the plain repeated SpMM")
	}
}

func TestGNNValidation(t *testing.T) {
	m := testMatrix(t, 5, 256, 64, 1500, 800)
	a := smallArch()
	ctx := context.Background()
	if _, err := GNN(ctx, m, &a, nil, GNNConfig{Layers: 0}); err == nil {
		t.Fatal("Layers=0 accepted")
	}
	if _, err := GNN(ctx, m, &a, nil, GNNConfig{Layers: 1}); err == nil {
		t.Fatal("nil features accepted without SkipFunctional")
	}
	if _, err := GNN(ctx, m, &a, dense.NewMatrix(m.N, a.K+1), GNNConfig{Layers: 1}); err == nil {
		t.Fatal("mis-shaped features accepted")
	}
	if _, err := GNN(ctx, m, &a, nil, GNNConfig{Layers: 2, SkipFunctional: true}); err != nil {
		t.Fatalf("SkipFunctional with nil features: %v", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := GNN(canceled, m, &a, nil, GNNConfig{Layers: 1, SkipFunctional: true}); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// TestGNNTimelineRecordsLayers runs a traced forward pass: the simulator
// events reach the timeline directly, and each layer is one span under the
// span on ctx, flushed into the timeline when the tracer finishes.
func TestGNNTimelineRecordsLayers(t *testing.T) {
	m := testMatrix(t, 6, 256, 64, 1500, 800)
	a := smallArch()
	tl := obs.NewTimeline(1 << 14)
	tr := obs.New("gnn")
	tr.SetTimeline(tl)
	ctx := obs.WithSpan(context.Background(), tr.Root())
	_, err := GNN(ctx, m, &a, nil, GNNConfig{
		Layers: 2, SkipFunctional: true, Timeline: tl, Label: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events()) == 0 {
		t.Fatal("timeline recorded no events")
	}
	var names []string
	for _, c := range tr.SpanTree().Children {
		names = append(names, c.Name)
	}
	if !slices.Contains(names, "layer0") || !slices.Contains(names, "layer1") {
		t.Fatalf("spans %v lack layer0 and layer1", names)
	}
	spans := 0
	for _, ev := range tl.Events() {
		if ev.Kind == obs.EvSlice {
			spans++
		}
	}
	if spans != len(names)+1 {
		t.Fatalf("timeline holds %d span slices, want %d (root and its children)", spans, len(names)+1)
	}
}

// TestRunBatchMixedKernels verifies every kernel's functional output inside
// one mixed batch, plus the FIFO schedule bookkeeping.
func TestRunBatchMixedKernels(t *testing.T) {
	m := testMatrix(t, 7, 512, 64, 3000, 1500)
	a := smallArch()
	rng := rand.New(rand.NewSource(8))
	din := dense.NewRandom(rng, m.N, a.K)
	vec := dense.NewRandom(rng, m.N, 1)

	br, err := RunBatch(context.Background(), &a, []Request{
		{Name: "spmm", Matrix: m, Din: din},
		{Name: "spmv", Kernel: model.KernelSpMV, Matrix: m, Din: vec},
		{Name: "sddmm", Kernel: model.KernelSDDMM, Matrix: m, Din: din},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("got %d results", len(br.Results))
	}

	want := dense.NewMatrix(m.N, a.K)
	if err := dense.SpMM(m, din, want); err != nil {
		t.Fatal(err)
	}
	if !br.Results[0].Output.AlmostEqual(want, 1e-9) {
		t.Fatal("SpMM output differs from reference")
	}
	wantVec := dense.NewMatrix(m.N, 1)
	if err := dense.SpMM(m, vec, wantVec); err != nil {
		t.Fatal(err)
	}
	if !br.Results[1].Output.AlmostEqual(wantVec, 1e-9) {
		t.Fatal("SpMV output differs from reference")
	}
	if len(br.Results[2].SDDMM) != m.NNZ() {
		t.Fatalf("SDDMM produced %d values, want %d", len(br.Results[2].SDDMM), m.NNZ())
	}

	// FIFO: requests laid back to back in submission order.
	clock := 0.0
	for i, r := range br.Results {
		if r.Time <= 0 {
			t.Fatalf("request %d: non-positive time", i)
		}
		if r.Start != clock || r.Finish != clock+r.Time {
			t.Fatalf("request %d: schedule [%g, %g] breaks FIFO at clock %g", i, r.Start, r.Finish, clock)
		}
		clock = r.Finish
	}
	if br.Makespan != clock {
		t.Fatalf("makespan %g != final clock %g", br.Makespan, clock)
	}
}

// TestRunBatchSharesPlans asserts the within-batch singleflight: N requests
// with one matrix and policy preprocess exactly once.
func TestRunBatchSharesPlans(t *testing.T) {
	m := testMatrix(t, 9, 512, 64, 3000, 1500)
	a := smallArch()

	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Matrix: m, SkipFunctional: true}
	}
	// One request with a different seedless policy still shares (same key);
	// one with a different strategy must not.
	reqs[5].Strategy = 1 // IUnaware
	br, err := RunBatch(context.Background(), &a, reqs, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	for _, r := range br.Results {
		if !r.PlanShared {
			builds++
		}
	}
	if builds != 2 {
		t.Fatalf("batch ran %d preprocessing builds, want 2 (one per distinct policy)", builds)
	}
}

// TestRunBatchDeterministic: the merge order and every simulated time are
// bit-identical between a serial and a parallel execution of the same batch.
func TestRunBatchDeterministic(t *testing.T) {
	m1 := testMatrix(t, 10, 512, 64, 3000, 1500)
	m2 := testMatrix(t, 11, 256, 64, 1500, 800)
	a := smallArch()
	din1 := dense.NewRandom(rand.New(rand.NewSource(12)), m1.N, a.K)
	din2 := dense.NewRandom(rand.New(rand.NewSource(13)), m2.N, a.K)
	reqs := []Request{
		{Name: "a", Matrix: m1, Din: din1},
		{Name: "b", Matrix: m2, Din: din2},
		{Name: "c", Kernel: model.KernelSpMV, Matrix: m1, Din: dense.NewRandom(rand.New(rand.NewSource(14)), m1.N, 1)},
		{Name: "d", Matrix: m1, Din: din1, Seed: 3, Strategy: 1},
	}

	run := func() *BatchResult {
		br, err := RunBatch(context.Background(), &a, reqs, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	parallel := run()
	defer par.SetWorkers(par.SetWorkers(1))
	serial := run()

	if parallel.Makespan != serial.Makespan {
		t.Fatalf("makespan differs: parallel %g, serial %g", parallel.Makespan, serial.Makespan)
	}
	for i := range reqs {
		p, s := parallel.Results[i], serial.Results[i]
		if p.Time != s.Time || p.Start != s.Start || p.Finish != s.Finish {
			t.Fatalf("request %d schedule differs between executions", i)
		}
		if p.Output != nil && !p.Output.Equal(s.Output) {
			t.Fatalf("request %d output differs between executions", i)
		}
	}
}

func TestRunBatchEmptyAndErrors(t *testing.T) {
	a := smallArch()
	br, err := RunBatch(context.Background(), &a, nil, BatchOptions{})
	if err != nil || br.Makespan != 0 || len(br.Results) != 0 {
		t.Fatalf("empty batch: %v %+v", err, br)
	}
	if _, err := RunBatch(context.Background(), &a, []Request{{}}, BatchOptions{}); err == nil {
		t.Fatal("nil matrix accepted")
	}
}

// TestReluBitIdentical checks the mask-based relu against the branching
// definition bit for bit: negatives (−Inf and the smallest subnormal
// included) become +0, while +0, −0, NaNs of either sign and positives pass
// unchanged.
func TestReluBitIdentical(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), negNaN, math.Inf(1), math.Inf(-1),
		-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -1.5, 2.25, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(4))
	for range 64 {
		vals = append(vals, rng.Float64()*2-1)
	}
	m := &dense.Matrix{N: len(vals), K: 1, Data: slices.Clone(vals)}
	relu(m)
	for i, v := range vals {
		want := v
		if v < 0 {
			want = 0
		}
		if math.Float64bits(m.Data[i]) != math.Float64bits(want) {
			t.Errorf("relu(%v) = %v (%#x), want %#x", v, m.Data[i], math.Float64bits(m.Data[i]), math.Float64bits(want))
		}
	}
}
