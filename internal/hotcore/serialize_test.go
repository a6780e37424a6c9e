package hotcore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
)

// roundTrip writes p and reads it back, requiring the grid, the decision
// and the section formats to equal p's, and so the sections Formats
// builds from them.
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
	g, bg := p.Grid, back.Grid
	if bg.N != g.N || bg.TileH != g.TileH || bg.TileW != g.TileW || bg.NumTR != g.NumTR || bg.NumTC != g.NumTC ||
		!reflect.DeepEqual(bg.Tiles, g.Tiles) || !reflect.DeepEqual(bg.PanelStart, g.PanelStart) ||
		!reflect.DeepEqual(bg.Rows, g.Rows) || !reflect.DeepEqual(bg.Cols, g.Cols) || !reflect.DeepEqual(bg.Vals, g.Vals) {
		t.Fatal("grid changed")
	}
	if !reflect.DeepEqual(back.Partition, p.Partition) {
		t.Fatal("partition changed")
	}
	if back.HotFormat != p.HotFormat || back.ColdFormat != p.ColdFormat {
		t.Fatal("section formats changed")
	}
	if !reflect.DeepEqual(sections(t, back), sections(t, p)) {
		t.Fatal("sections changed")
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
	if s := sections(t, p); len(s.Hot.Blocks) == 0 || s.Cold.NNZ() == 0 {
		t.Fatal("test plan needs both hot and cold tiles")
	}
	if back := roundTrip(t, p); back.HotFormat != model.FormatCOO || back.ColdFormat != model.FormatCOO {
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
	if s := sections(t, p); len(s.Hot.Blocks) == 0 || s.ColdCSR == nil || s.ColdCSR.NNZ() == 0 {
		t.Fatal("test plan needs both hot tiles and a CSR cold section")
	}
	if back := roundTrip(t, p); back.HotFormat != model.FormatCSR || back.ColdFormat != model.FormatCSR {
		t.Fatal("CSR plan came back with COO sections")
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	if _, err := ReadPlan(strings.NewReader("not a plan stream")); err == nil {
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

// TestPlanWireBytesPinned pins the encoded bytes of one fixed plan per
// section shape: gen "pap" at scale 400 on SPADE-Sextans 4-4 (COO cold
// section) and on PIUMA (CSR sections). A change to the wire layout, to
// where the format flags come from or to the decision itself moves a hash.
// The hashes were recorded on linux/amd64; an architecture that fuses
// floating-point multiply-adds can round the predictions differently.
func TestPlanWireBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	b, _ := gen.ByShort("pap")
	m := b.Build(1, 400)
	for _, c := range []struct {
		name string
		a    arch.Arch
		want string
	}{
		{"spade-sextans:4", arch.SpadeSextans(4), "3fac40fa5e8fddee7d76e675c20beaee54f637248c4f76a5451bc21f6d2ad4a7"},
		{"piuma", arch.PIUMA(), "bd7d5dad98b4b851e1a0f3b9f0f22b03c88f366533a7fb868cfc8b129de5cc96"},
	} {
		p, err := preprocess(m, &c.a, Options{Strategy: StrategyHotTiles, OpsPerMAC: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, p); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%s: plan sha256 %s, want %s", c.name, got, c.want)
		}
	}
}
