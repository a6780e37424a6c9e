package viz

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/tile"
)

func testGrid(t *testing.T) (*tile.Grid, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := sparse.NewCOO(256, 0)
	for i := 0; i < 2000; i++ {
		m.Append(int32(rng.Intn(64)), int32(rng.Intn(64)), 1) // hot corner
	}
	for i := 0; i < 800; i++ {
		m.Append(int32(rng.Intn(256)), int32(rng.Intn(256)), 1)
	}
	m.SortRowMajor()
	m.DedupSum()
	g, err := tile.Partition(m, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = 32, 32
	cfg := a.Config(2)
	es, err := partition.NewEstimates(g, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.Run(es, cfg, partition.HotTiles, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Hot
}

func parsePGMHeader(t *testing.T, s string) (w, h int) {
	t.Helper()
	var maxv int
	if _, err := fmt.Sscanf(s, "P2\n%d %d\n%d\n", &w, &h, &maxv); err != nil {
		t.Fatalf("bad PGM header: %v (%q...)", err, s[:min(40, len(s))])
	}
	if maxv != 255 {
		t.Fatalf("maxval %d", maxv)
	}
	return w, h
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTileMap(t *testing.T) {
	g, hot := testGrid(t)
	var buf bytes.Buffer
	if err := TileMap(&buf, g, hot, 64); err != nil {
		t.Fatal(err)
	}
	w, h := parsePGMHeader(t, buf.String())
	if w != g.NumTC || h != g.NumTR {
		t.Fatalf("image %dx%d for a %dx%d grid", w, h, g.NumTC, g.NumTR)
	}
	// The image must contain hot (0), cold (176) and empty (255) pixels.
	body := buf.String()
	for _, tok := range []string{" 0", "176", "255"} {
		if !strings.Contains(body, tok) {
			t.Fatalf("missing pixel class %q", tok)
		}
	}
	// Bad assignment length is rejected.
	if err := TileMap(&buf, g, hot[:1], 64); err == nil {
		t.Fatal("expected length error")
	}
}

func TestTileMapDownsamples(t *testing.T) {
	g, hot := testGrid(t)
	var buf bytes.Buffer
	if err := TileMap(&buf, g, hot, 2); err != nil {
		t.Fatal(err)
	}
	w, h := parsePGMHeader(t, buf.String())
	if w > 2 || h > 2 {
		t.Fatalf("downsampled image %dx%d exceeds 2x2", w, h)
	}
}

func TestTraceStrip(t *testing.T) {
	g, hot := testGrid(t)
	a := arch.SpadeSextans(4)
	a.TileH, a.TileW = 32, 32
	r, err := sim.Run(g, hot, &a, nil, sim.Options{SkipFunctional: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := TraceStrip(&buf, r.Trace, a.BWBytes, 64, 8); err != nil {
		t.Fatal(err)
	}
	w, h := parsePGMHeader(t, buf.String())
	if w != 64 || h != 8 {
		t.Fatalf("strip %dx%d", w, h)
	}
	if err := TraceStrip(&buf, nil, a.BWBytes, 64, 8); err == nil {
		t.Fatal("expected empty-trace error")
	}
	if err := TraceStrip(&buf, r.Trace, 0, 64, 8); err == nil {
		t.Fatal("expected bandwidth error")
	}
}

func TestTraceStripDefaults(t *testing.T) {
	pts := []sim.TracePoint{{T: 0, Dt: 1, BW: 50e9}}
	var buf bytes.Buffer
	if err := TraceStrip(&buf, pts, 100e9, 0, 0); err != nil {
		t.Fatal(err)
	}
	w, h := parsePGMHeader(t, buf.String())
	if w != 256 || h != 32 {
		t.Fatalf("default strip %dx%d", w, h)
	}
	// 50% utilization → mid-gray pixels (≈127).
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	px := strings.Fields(lines[3])[0]
	if px != "127" && px != "128" {
		t.Fatalf("pixel %s, want ~127", px)
	}
}
