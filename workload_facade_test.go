package hottiles

import (
	"context"
	"testing"
)

func TestRunBatchViaFacade(t *testing.T) {
	m := demoMatrix(40)
	a := demoArch()
	din := NewDense(m.N, a.K)
	for i := range din.Data {
		din.Data[i] = 1
	}
	br, err := RunBatch(context.Background(), &a, []BatchRequest{
		{Name: "one", Matrix: m, Din: din},
		{Name: "two", Matrix: m, Din: din},
	}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 || br.Makespan <= 0 {
		t.Fatalf("unexpected batch result: %+v", br)
	}
	if !br.Results[1].PlanShared {
		t.Fatal("second identical request did not share the first's plan")
	}
	want, err := Reference(m, din)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Results[0].Output.AlmostEqual(want, 1e-9) {
		t.Fatal("batch SpMM output differs from reference")
	}
}

func TestEvolveAndSimulateViaFacade(t *testing.T) {
	m := demoMatrix(41)
	a := demoArch()
	batches, err := NewEditStream(42, m, 3, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvolveAndSimulate(context.Background(), m, &a, batches, EvolveConfig{
		Threshold: 0.05, SkipFunctional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("got %d steps", len(res.Steps))
	}
	if res.SimTotal <= 0 {
		t.Fatal("non-positive total simulated time")
	}
}

func TestApplyEditsViaFacade(t *testing.T) {
	m := demoMatrix(43)
	before := m.NNZ()
	if err := ApplyEdits(m, []Edit{{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 0, Del: true}}); err != nil {
		t.Fatal(err)
	}
	// Net effect of set-then-delete at one coordinate: the coordinate is
	// absent, whatever was there before.
	if m.NNZ() > before {
		t.Fatal("delete-after-insert grew the matrix")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunGNNWithPlanReusesPlan(t *testing.T) {
	m := demoMatrix(44)
	a := demoArch()
	plan, err := PartitionCtx(context.Background(), m, &a, PartitionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGNNWithPlan(context.Background(), plan, &a, nil, GNNConfig{
		Layers: 2, SkipFunctional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != plan {
		t.Fatal("RunGNNWithPlan rebuilt the plan")
	}
	if len(res.LayerTimes) != 2 {
		t.Fatalf("got %d layer times", len(res.LayerTimes))
	}
}
