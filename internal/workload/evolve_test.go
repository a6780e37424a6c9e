package workload

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/hotcore"
	"repro/internal/sparse"
)

// TestShouldReplanMonotone is the trigger property: for any threshold, if
// drift D fires a re-plan, every D' > D fires too; and a negative
// threshold never fires.
func TestShouldReplanMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 1000; trial++ {
		threshold := rng.Float64()*2 - 0.5 // includes negatives
		d := rng.Float64() * 2
		dPrime := d + rng.Float64() // d' > d
		if ShouldReplan(threshold, d) && !ShouldReplan(threshold, dPrime) {
			t.Fatalf("threshold %g: drift %g fired but larger drift %g did not", threshold, d, dPrime)
		}
		if threshold < 0 && ShouldReplan(threshold, d) {
			t.Fatalf("negative threshold %g fired at drift %g", threshold, d)
		}
	}
	if !ShouldReplan(0, 0) {
		t.Fatal("threshold 0 must re-plan unconditionally")
	}
}

// TestEvolveReplanMatchesScratchPlan is the byte-identity property: with
// Threshold = 0 (re-plan every step), the plan held after the last step
// must serialize byte-identically to a plan built from scratch — on a
// matrix rebuilt from scratch, not the incrementally-maintained one — with
// the same seed.
func TestEvolveReplanMatchesScratchPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 3; trial++ {
		m := testMatrix(t, int64(17+trial), 512, 64, 3000, 1500)
		a := smallArch()
		batches, err := EditStream(int64(23+trial), m, 4, 200, 50)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evolve(context.Background(), m, &a, batches, EvolveConfig{
			Threshold: 0, Seed: 42, SkipFunctional: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Replans != len(batches) {
			t.Fatalf("trial %d: threshold 0 re-planned %d/%d steps", trial, res.Replans, len(batches))
		}

		// Rebuild the final matrix from scratch: shuffle its triplets into
		// a fresh COO and restore the row-major invariant, so the scratch
		// path shares no state with the incremental one.
		scratch := sparse.NewCOO(res.Matrix.N, res.Matrix.NNZ())
		for _, i := range rng.Perm(res.Matrix.NNZ()) {
			r, c, v := res.Matrix.At(i)
			scratch.Append(r, c, v)
		}
		scratch.SortRowMajor()

		fromScratch, err := hotcore.PreprocessCtx(context.Background(), scratch, &a, hotcore.Options{
			OpsPerMAC: 2, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := hotcore.WritePlan(&got, res.Plan); err != nil {
			t.Fatal(err)
		}
		if err := hotcore.WritePlan(&want, fromScratch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d: evolved re-plan (%d bytes) is not byte-identical to the scratch plan (%d bytes)",
				trial, got.Len(), want.Len())
		}
	}
}

// TestEvolveThresholdSweepMonotone runs one edit stream under a descending
// threshold ladder and checks the end-to-end consequence of the trigger's
// monotonicity: lowering the threshold never reduces the re-plan count,
// and the extremes behave ("never" re-plans zero times, "always" re-plans
// every step).
func TestEvolveThresholdSweepMonotone(t *testing.T) {
	m := testMatrix(t, 20, 512, 64, 3000, 1500)
	a := smallArch()
	batches, err := EditStream(21, m, 5, 400, 100)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := []float64{-1, 0.5, 0.2, 0.1, 0.05, 0.02, 0}
	prev := -1
	for _, th := range thresholds {
		res, err := Evolve(context.Background(), m, &a, batches, EvolveConfig{
			Threshold: th, SkipFunctional: true,
		})
		if err != nil {
			t.Fatalf("threshold %g: %v", th, err)
		}
		if res.Replans < prev {
			t.Fatalf("threshold %g re-planned %d times, fewer than the higher threshold's %d",
				th, res.Replans, prev)
		}
		prev = res.Replans
		if len(res.Steps) != len(batches) {
			t.Fatalf("threshold %g: %d steps reported, want %d", th, len(res.Steps), len(batches))
		}
		for i, st := range res.Steps {
			if st.SimTime <= 0 {
				t.Fatalf("threshold %g step %d: non-positive sim time", th, i)
			}
			if st.Replanned != ShouldReplan(th, st.Drift) {
				t.Fatalf("threshold %g step %d: Replanned=%v contradicts trigger at drift %g",
					th, i, st.Replanned, st.Drift)
			}
		}
	}
	never, err := Evolve(context.Background(), m, &a, batches, EvolveConfig{
		Threshold: -1, SkipFunctional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if never.Replans != 0 {
		t.Fatalf("negative threshold re-planned %d times", never.Replans)
	}
}

// TestEvolveDoesNotMutateInput pins the working-copy contract.
func TestEvolveDoesNotMutateInput(t *testing.T) {
	m := testMatrix(t, 22, 256, 64, 1500, 800)
	before := m.Clone()
	a := smallArch()
	batches, err := EditStream(23, m, 2, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evolve(context.Background(), m, &a, batches, EvolveConfig{
		Threshold: 0.1, SkipFunctional: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != before.NNZ() {
		t.Fatal("Evolve mutated the caller's matrix")
	}
	for i := 0; i < m.NNZ(); i++ {
		r0, c0, v0 := before.At(i)
		r1, c1, v1 := m.At(i)
		if r0 != r1 || c0 != c1 || v0 != v1 {
			t.Fatal("Evolve mutated the caller's matrix")
		}
	}
	if res.Matrix.NNZ() == m.NNZ() {
		t.Fatal("evolved matrix did not change size despite net edge growth")
	}
}

// TestEditStreamDeterministic: same seed, same stream.
func TestEditStreamDeterministic(t *testing.T) {
	m := testMatrix(t, 24, 256, 64, 1500, 800)
	a, err := EditStream(7, m, 3, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EditStream(7, m, 3, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("stream lengths differ")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("batch %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("batch %d edit %d differs", i, j)
			}
		}
	}
}

// TestEvolveCancel: a canceled context stops the step loop.
func TestEvolveCancel(t *testing.T) {
	m := testMatrix(t, 25, 256, 64, 1500, 800)
	a := smallArch()
	batches, err := EditStream(26, m, 2, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Evolve(ctx, m, &a, batches, EvolveConfig{SkipFunctional: true}); err == nil {
		t.Fatal("canceled context accepted")
	}
}
