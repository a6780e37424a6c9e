package hotcore

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
)

// roundTrip writes p and reads it back, requiring the rebuilt sections and
// the assignment to equal the ones PreprocessCtx produced.
func roundTrip(t *testing.T, p *Prep) *Prep {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Grid.NNZ() != p.Grid.NNZ() || back.Grid.N != p.Grid.N {
		t.Fatal("grid changed")
	}
	if !reflect.DeepEqual(back.Partition, p.Partition) {
		t.Fatal("partition changed")
	}
	if !reflect.DeepEqual(back.Hot, p.Hot) {
		t.Fatal("hot section changed")
	}
	if !reflect.DeepEqual(back.Cold, p.Cold) || !reflect.DeepEqual(back.ColdCSR, p.ColdCSR) {
		t.Fatal("cold section changed")
	}
	return back
}

func TestPlanRoundTrip(t *testing.T) {
	m := testMatrix(t, 51, 512, 64, 3000, 1500)
	a := smallArch()
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hot.Blocks) == 0 || p.Cold.NNZ() == 0 {
		t.Fatal("test plan needs both hot and cold tiles")
	}
	if back := roundTrip(t, p); back.ColdCSR != nil || back.Hot.CSR {
		t.Fatal("COO plan came back with CSR sections")
	}
}

func TestPlanRoundTripPIUMACSR(t *testing.T) {
	m := testMatrix(t, 52, 512, 64, 2000, 1000)
	a := arch.PIUMA()
	a.TileH, a.TileW = 64, 64
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hot.Blocks) == 0 || p.ColdCSR == nil || p.ColdCSR.NNZ() == 0 {
		t.Fatal("test plan needs both hot tiles and a CSR cold section")
	}
	if back := roundTrip(t, p); back.Cold != nil || !back.Hot.CSR {
		t.Fatal("CSR plan came back with COO sections")
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
	if err := WritePlan(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("expected nil-plan error")
	}
}

func TestReadPlanRejectsCorruptedGrid(t *testing.T) {
	m := testMatrix(t, 53, 256, 32, 800, 400)
	a := smallArch()
	p, err := preprocess(m, &a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the in-memory plan, serialize, and expect the load-time
	// validation to refuse it.
	p.Grid.Rows[p.Grid.Tiles[0].Start] = int32(p.Grid.N - 1)
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPlan(&buf); err == nil {
		t.Fatal("expected grid validation error")
	}
}
