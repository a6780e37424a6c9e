package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
)

// testEnv runs at a very coarse scale so the full suite stays fast; the
// structural properties asserted here are scale-independent.
func testEnv() *Env { return NewEnv(512, 1) }

func TestFig4(t *testing.T) {
	e := testEnv()
	studies, err := e.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 2 {
		t.Fatalf("%d studies, want 2 (SPADE-Sextans, PIUMA)", len(studies))
	}
	for _, st := range studies {
		if len(st.Rows) != 10 {
			t.Fatalf("%s: %d rows", st.ArchName, len(st.Rows))
		}
		for _, r := range st.Rows {
			// Speedups are relative to the worst homogeneous execution, so
			// the worst homogeneous bar is exactly 1.
			worst := r.Speedups[StratHotOnly]
			if r.Speedups[StratColdOnly] < worst {
				worst = r.Speedups[StratColdOnly]
			}
			if worst != 1 {
				t.Errorf("%s/%s: worst homogeneous speedup %.3f != 1", st.ArchName, r.Short, worst)
			}
			// IUnaware always helps against the worst homogeneous (§III-B).
			if r.Speedups[StratIUnaware] < 0.9 {
				t.Errorf("%s/%s: IUnaware speedup %.2f < 0.9", st.ArchName, r.Short, r.Speedups[StratIUnaware])
			}
		}
	}
	var buf bytes.Buffer
	studies[0].Render(&buf)
	if !strings.Contains(buf.String(), "speedup over worst homogeneous") {
		t.Error("render missing header")
	}
}

func TestFig5(t *testing.T) {
	e := testEnv()
	f, err := e.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTR <= 0 || f.NumTC <= 0 {
		t.Fatal("empty grid")
	}
	if len(f.HotHotTiles) == 0 {
		t.Fatal("HotTiles assigned nothing hot on the community matrix")
	}
	if f.HotNNZFracHotTiles <= 0 || f.HotNNZFracHotTiles > 1 {
		t.Fatalf("HotTiles hot-nnz fraction %g", f.HotNNZFracHotTiles)
	}
	// The paper's observation: HotTiles concentrates hot tiles on the dense
	// communities, so its hot share of nonzeros exceeds its hot share of
	// tiles; IUnaware's random pick cannot do that systematically.
	tileFrac := float64(len(f.HotHotTiles)) / float64(f.NumTR*f.NumTC)
	if f.HotNNZFracHotTiles <= tileFrac {
		t.Errorf("HotTiles hot nnz frac %.2f not above its tile frac %.2f",
			f.HotNNZFracHotTiles, tileFrac)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "#") {
		t.Error("render has no hot tiles")
	}
}

func TestFig10AndTableVIConsistent(t *testing.T) {
	e := testEnv()
	st, err := e.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 10 || len(tab.Rows) != 10 {
		t.Fatal("row counts wrong")
	}
	for i, r := range tab.Rows {
		if r.Short != st.Rows[i].Short {
			t.Fatal("matrix order differs")
		}
		// The table's ms and the study's seconds describe the same runs.
		if diff := r.HotTiles/1e3 - st.Rows[i].Times[StratHotTiles]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: table %.6f ms vs study %.6f ms", r.Short, r.HotTiles, st.Rows[i].Times[StratHotTiles]*1e3)
		}
		if r.BestHom > r.HotOnly || r.BestHom > r.ColdOnly {
			t.Errorf("%s: BestHom %.3f not the min", r.Short, r.BestHom)
		}
	}
	// Headline result: HotTiles helps on average against every baseline.
	for _, base := range []string{StratHotOnly, StratColdOnly, StratIUnaware} {
		if st.AvgSpeedupOver[base] < 1 {
			t.Errorf("HotTiles average speedup vs %s = %.2f < 1", base, st.AvgSpeedupOver[base])
		}
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "Runtime in ms") {
		t.Error("table render broken")
	}
}

func TestFig11PIUMA(t *testing.T) {
	e := testEnv()
	st, err := e.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if st.ArchName != "PIUMA" || len(st.Rows) != 10 {
		t.Fatalf("study %s with %d rows", st.ArchName, len(st.Rows))
	}
	if st.AvgSpeedupOver[StratIUnaware] < 1 {
		t.Errorf("HotTiles vs IUnaware on PIUMA = %.2f < 1", st.AvgSpeedupOver[StratIUnaware])
	}
}

func TestFig12(t *testing.T) {
	e := testEnv()
	f, err := e.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 4 {
		t.Fatalf("%d scales, want 4", len(f.Rows))
	}
	for _, r := range f.Rows {
		// HotTiles picks per matrix by *predicted* runtime, so its average
		// tracks the best single heuristic closely but — unlike in the
		// paper — can dip slightly below it when the model mispredicts
		// under heavy bandwidth pressure.
		best := 0.0
		for name, s := range r.SpeedupVsBestHom {
			if name != StratHotTiles && s > best {
				best = s
			}
		}
		if r.SpeedupVsBestHom[StratHotTiles] < 0.85*best {
			t.Errorf("scale %d: HotTiles %.3f far below best heuristic %.3f",
				r.Scale, r.SpeedupVsBestHom[StratHotTiles], best)
		}
		if r.AvgHomBandwidthGBs <= 0 {
			t.Errorf("scale %d: no bandwidth stat", r.Scale)
		}
	}
	// Paper trends across scales: at small scales (low bandwidth pressure)
	// MinTime Parallel is the strongest heuristic; at the largest scale the
	// Serial heuristics overtake the Parallel ones by avoiding the merge.
	small, large := f.Rows[0].SpeedupVsBestHom, f.Rows[3].SpeedupVsBestHom
	if small["MinTime Parallel"] < small["MinTime Serial"] ||
		small["MinTime Parallel"] < small["MinByte Serial"] {
		t.Error("scale 1: MinTime Parallel should lead the serial heuristics")
	}
	bestSerial := large["MinTime Serial"]
	if large["MinByte Serial"] > bestSerial {
		bestSerial = large["MinByte Serial"]
	}
	if bestSerial < large["MinTime Parallel"] {
		t.Error("scale 8: a Serial heuristic should overtake MinTime Parallel")
	}
	// Bandwidth pressure grows with system scale (the paper's annotation).
	if f.Rows[3].AvgHomBandwidthGBs <= f.Rows[0].AvgHomBandwidthGBs {
		t.Errorf("bandwidth util should grow with scale: %.1f vs %.1f",
			f.Rows[0].AvgHomBandwidthGBs, f.Rows[3].AvgHomBandwidthGBs)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "MinByte Serial") {
		t.Error("render missing heuristics")
	}
}

func TestTableVII(t *testing.T) {
	e := testEnv()
	tab, err := e.TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Scales) != 2 || tab.Scales[0].Scale != 1 || tab.Scales[1].Scale != 4 {
		t.Fatal("scales wrong")
	}
	for _, sc := range tab.Scales {
		if sc.BandwidthGBs[StratHotTiles] <= 0 || sc.LinesPerNNZ[StratColdOnly] <= 0 {
			t.Fatalf("scale %d: missing stats", sc.Scale)
		}
		// HotOnly leaves the cold pool idle and vice versa.
		if sc.ColdGFLOPs[StratHotOnly] != 0 {
			t.Errorf("scale %d: cold pool active under HotOnly", sc.Scale)
		}
		if sc.HotGFLOPs[StratColdOnly] != 0 {
			t.Errorf("scale %d: hot pool active under ColdOnly", sc.Scale)
		}
		// HotTiles reduces redundant traffic vs HotOnly (Table VII trend).
		if sc.LinesPerNNZ[StratHotTiles] >= sc.LinesPerNNZ[StratHotOnly] {
			t.Errorf("scale %d: HotTiles lines/nnz %.2f not below HotOnly %.2f",
				sc.Scale, sc.LinesPerNNZ[StratHotTiles], sc.LinesPerNNZ[StratHotOnly])
		}
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "Bandwidth Util.") {
		t.Error("render broken")
	}
}

func TestFig13(t *testing.T) {
	e := testEnv()
	f, err := e.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 10 {
		t.Fatalf("%d rows", len(f.Rows))
	}
	if f.AvgVsHotOnly8 <= 0 || f.AvgVsColdOnly8 <= 0 {
		t.Fatal("averages missing")
	}
	// The paper's takeaway: heterogeneous 4-4 beats double-size homogeneous
	// on average (2.9x and 1.6x); at least the hot side must hold clearly.
	if f.AvgVsHotOnly8 < 1 {
		t.Errorf("HotTiles4 vs HotOnly8 = %.2f < 1", f.AvgVsHotOnly8)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "vs ColdOnly8") {
		t.Error("render broken")
	}
}

func TestFig14(t *testing.T) {
	e := testEnv()
	f, err := e.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 5 {
		t.Fatalf("%d intensity points, want 5", len(f.Rows))
	}
	first, last := f.Rows[0], f.Rows[len(f.Rows)-1]
	// As arithmetic intensity grows, work shifts to the enhanced hot worker
	// (the paper's Figure 14 trend).
	if last.HotNNZFrac <= first.HotNNZFrac {
		t.Errorf("hot share did not grow with AI: %.2f -> %.2f", first.HotNNZFrac, last.HotNNZFrac)
	}
	// At low AI HotTiles crushes HotOnly (PCIe bottleneck); at high AI it
	// crushes ColdOnly (compute bottleneck).
	if first.VsHotOnly < last.VsHotOnly {
		t.Errorf("vs HotOnly should shrink with AI: %.2f -> %.2f", first.VsHotOnly, last.VsHotOnly)
	}
	if last.VsColdOnly < first.VsColdOnly {
		t.Errorf("vs ColdOnly should grow with AI: %.2f -> %.2f", first.VsColdOnly, last.VsColdOnly)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "ops/nnz") {
		t.Error("render broken")
	}
}

func TestFig15DenseSuite(t *testing.T) {
	e := testEnv()
	studies, err := e.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 2 {
		t.Fatal("want scales 1 and 4")
	}
	for _, st := range studies {
		if len(st.Rows) != 5 {
			t.Fatalf("%s: %d rows, want 5", st.ArchName, len(st.Rows))
		}
		if st.AvgSpeedupOver[StratIUnaware] < 1 {
			t.Errorf("%s: HotTiles vs IUnaware %.2f < 1", st.ArchName, st.AvgSpeedupOver[StratIUnaware])
		}
	}
}

func TestFig16(t *testing.T) {
	e := testEnv()
	f, err := e.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Names) != 9 || len(f.Predicted) != 9 || len(f.Actual) != 9 {
		t.Fatal("want 9 iso-scale architectures")
	}
	// 4-4 is the baseline: its actual speedup over itself is exactly 1.
	if f.Actual[4] != 1 || f.Predicted[4] != 1 {
		t.Fatalf("4-4 speedups %.3f/%.3f, want 1/1", f.Predicted[4], f.Actual[4])
	}
	if f.PredictedBest == "" || f.ActualBest == "" {
		t.Fatal("missing winners")
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "predicted best") {
		t.Error("render broken")
	}
}

func TestTableIX(t *testing.T) {
	e := testEnv()
	tab, err := e.TableIX()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatal("want 10 rows")
	}
	for _, r := range tab.Rows {
		// The oracle is at least as good as the prediction-driven choice.
		if r.OracleSpeedup+1e-12 < r.PredSpeedup {
			t.Errorf("%s: oracle %.3f below predicted choice %.3f", r.Short, r.OracleSpeedup, r.PredSpeedup)
		}
		if r.Correct && r.PredBest != r.ActualBest {
			t.Errorf("%s: marked correct but %s != %s", r.Short, r.PredBest, r.ActualBest)
		}
	}
	if tab.Accuracy < 0 || tab.Accuracy > 1 {
		t.Fatalf("accuracy %g", tab.Accuracy)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), "oracle") {
		t.Error("render broken")
	}
}

func TestFig17(t *testing.T) {
	e := testEnv()
	f, err := e.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Archs) != 2 {
		t.Fatal("want 2 architectures")
	}
	for _, s := range []string{StratHotOnly, StratColdOnly, StratHotTiles} {
		if f.AvgError[s] < 0 {
			t.Fatalf("%s: negative average |error|", s)
		}
	}
	// The paper's error structure: HotOnly (no caches involved on the
	// streaming side) predicts better than ColdOnly, whose matrices enjoy
	// cache reuse the model ignores.
	if f.AvgError[StratHotOnly] > f.AvgError[StratColdOnly] {
		t.Errorf("HotOnly error %.2f should be below ColdOnly %.2f",
			f.AvgError[StratHotOnly], f.AvgError[StratColdOnly])
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "average |error|") {
		t.Error("render broken")
	}
}

func TestFig18(t *testing.T) {
	e := testEnv()
	f, err := e.Fig18(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 10 {
		t.Fatal("want 10 rows")
	}
	for _, r := range f.Rows {
		if r.OverheadFrac <= 0 || r.OverheadFrac >= 1 {
			t.Errorf("%s: overhead fraction %.2f outside (0,1)", r.Short, r.OverheadFrac)
		}
	}
	if f.AvgOverheadFrac <= 0 || f.AvgOverheadFrac >= 1 {
		t.Fatalf("average overhead %.2f", f.AvgOverheadFrac)
	}
	var buf bytes.Buffer
	f.Render(&buf)
	if !strings.Contains(buf.String(), "Preprocessing breakdown") {
		t.Error("render broken")
	}
}

func TestVerifyFunctionalAcrossArchitectures(t *testing.T) {
	// The repository-wide correctness invariant: every benchmark's HotTiles
	// partitioning, functionally executed on every architecture, reproduces
	// the reference SpMM exactly (up to summation order).
	e := testEnv()
	for _, a := range []arch.Arch{arch.SpadeSextans(4), arch.PIUMA(), arch.SpadeSextansPCIe()} {
		for _, b := range gen.Benchmarks() {
			diff, err := e.Verify(a, b)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, b.Short, err)
			}
			if diff > 1e-9 {
				t.Errorf("%s/%s: functional divergence %g", a.Name, b.Short, diff)
			}
		}
	}
	for _, b := range gen.DenseBenchmarks() {
		diff, err := e.Verify(arch.SpadeSextans(1), b)
		if err != nil {
			t.Fatalf("dense/%s: %v", b.Short, err)
		}
		if diff > 1e-9 {
			t.Errorf("dense/%s: functional divergence %g", b.Short, diff)
		}
	}
}

func TestEnvCaching(t *testing.T) {
	e := testEnv()
	b, _ := gen.ByShort("pap")
	m1 := e.Matrix(b)
	m2 := e.Matrix(b)
	if m1 != m2 {
		t.Fatal("matrix not cached")
	}
	g1, err := e.Grid(b, e.TileSize())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := e.Grid(b, e.TileSize())
	if g1 != g2 {
		t.Fatal("grid not cached")
	}
	a := arch.SpadeSextans(4)
	r1, err := e.exec(a, b, StratHotTiles, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := e.exec(a, b, StratHotTiles, 2)
	if r1 != r2 {
		t.Fatal("run not cached")
	}
	if _, err := e.exec(a, b, "Nope", 2); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
}

func TestTileSizeClamps(t *testing.T) {
	if got := NewEnv(8, 0).TileSize(); got != 512 {
		t.Fatalf("scale 8 tile %d, want 512", got)
	}
	if got := NewEnv(4096, 0).TileSize(); got != 64 {
		t.Fatalf("scale 4096 tile %d, want 64", got)
	}
}
