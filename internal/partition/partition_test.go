package partition

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/tile"
)

// hotWorker mimics a Sextans-like streaming PE: high compute, scratchpad
// streaming for Din, inter-tile Dout reuse, tiled traversal.
func hotWorker(count int) *model.Worker {
	return &model.Worker{
		Name: "hot", Kind: model.Hot, Count: count,
		FreqHz: 1e9, MACsPerCycle: 16,
		VisLatPerByte:  1.0 / 40e9,
		Format:         model.FormatCOO,
		DinReuse:       model.ReuseIntraStream,
		DoutReuse:      model.ReuseInter,
		TiledTraversal: true,
		OverlapGroups:  model.FullOverlap(),
		ElemBytes:      4, IdxBytes: 4,
	}
}

// coldWorker mimics a SPADE-like latency-tolerant PE: modest compute,
// on-demand Din, inter-tile Dout, untiled traversal.
func coldWorker(count int) *model.Worker {
	return &model.Worker{
		Name: "cold", Kind: model.Cold, Count: count,
		FreqHz: 1e9, MACsPerCycle: 1,
		VisLatPerByte:  1.0 / 10e9,
		Format:         model.FormatCOO,
		DinReuse:       model.ReuseNone,
		DoutReuse:      model.ReuseInter,
		TiledTraversal: false,
		OverlapGroups:  model.FullOverlap(),
		ElemBytes:      4, IdxBytes: 4,
	}
}

func testConfig() Config {
	return Config{
		Hot: hotWorker(1), Cold: coldWorker(8),
		BWBytes: 100e9,
		Params:  model.Params{K: 32, OpsPerMAC: 2},
	}
}

// imhMatrix builds a matrix with strong intra-matrix heterogeneity: a dense
// top-left block plus a sparse uniform background.
func imhMatrix(t *testing.T, n, blockN, blockNNZ, bgNNZ int, seed int64) *tile.Grid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := sparse.NewCOO(n, blockNNZ+bgNNZ)
	for i := 0; i < blockNNZ; i++ {
		m.Append(int32(rng.Intn(blockN)), int32(rng.Intn(blockN)), 1)
	}
	for i := 0; i < bgNNZ; i++ {
		m.Append(int32(rng.Intn(n)), int32(rng.Intn(n)), 1)
	}
	m.SortRowMajor()
	m.DedupSum()
	g, err := tile.Partition(m, n/8, n/8)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// run partitions g with strategy s: the model's estimates, then Run.
func run(t *testing.T, g *tile.Grid, cfg Config, s Strategy, seed int64) Result {
	t.Helper()
	es, err := NewEstimates(g, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(es, cfg, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHeuristicMetadata(t *testing.T) {
	// Paper Table II.
	if MinTimeParallel.Serial() || !MinTimeSerial.Serial() ||
		MinByteParallel.Serial() || !MinByteSerial.Serial() {
		t.Fatal("Serial() wrong")
	}
	if MinTimeParallel.MinimizesBytes() || !MinByteParallel.MinimizesBytes() {
		t.Fatal("MinimizesBytes() wrong")
	}
	want := map[Heuristic]string{
		MinTimeParallel: "low", MinTimeSerial: "medium",
		MinByteParallel: "medium", MinByteSerial: "high",
	}
	for h, w := range want {
		if h.BandwidthPressure() != w {
			t.Errorf("%v pressure = %s, want %s", h, h.BandwidthPressure(), w)
		}
		if h.String() == "" {
			t.Errorf("%d has empty name", int(h))
		}
	}
	if Heuristic(9).String() == "" {
		t.Error("fallback name empty")
	}
}

func TestHotTilesAssignsDenseBlockHot(t *testing.T) {
	g := imhMatrix(t, 256, 32, 800, 400, 1)
	res := run(t, g, testConfig(), HotTiles, 0)
	if len(res.Hot) != len(g.Tiles) {
		t.Fatal("assignment length mismatch")
	}
	// The dense tile (0,0) must be hot; the average background tile cold.
	hotDense := false
	coldBackground := 0
	totalBackground := 0
	for i, tl := range g.Tiles {
		if tl.TR == 0 && tl.TC == 0 {
			hotDense = res.Hot[i]
			continue
		}
		totalBackground++
		if !res.Hot[i] {
			coldBackground++
		}
	}
	if !hotDense {
		t.Error("dense block tile not assigned hot")
	}
	if coldBackground*2 < totalBackground {
		t.Errorf("only %d/%d background tiles cold", coldBackground, totalBackground)
	}
	if res.Predicted <= 0 {
		t.Error("non-positive predicted runtime")
	}
}

func TestHotTilesBeatsHomogeneousAndIUnawareInPrediction(t *testing.T) {
	g := imhMatrix(t, 256, 32, 800, 400, 2)
	cfg := testConfig()
	res := run(t, g, cfg, HotTiles, 0)
	for _, s := range []Strategy{HotOnly, ColdOnly, IUnaware} {
		if r := run(t, g, cfg, s, 7); res.Predicted > r.Predicted*(1+1e-9) {
			t.Errorf("HotTiles predicted %.3e worse than %v %.3e", res.Predicted, s, r.Predicted)
		}
	}
}

func TestRunHeuristicAllFour(t *testing.T) {
	g := imhMatrix(t, 256, 32, 600, 500, 3)
	cfg := testConfig()
	best := run(t, g, cfg, HotTiles, 0)
	minPred := math.Inf(1)
	for h := MinTimeParallel; h <= MinByteSerial; h++ {
		r := run(t, g, cfg, Forced(h), 0)
		if r.Heuristic != h || r.Serial != h.Serial() {
			t.Errorf("%v: metadata wrong", h)
		}
		if r.Predicted < minPred {
			minPred = r.Predicted
		}
	}
	if math.Abs(best.Predicted-minPred) > 1e-12*minPred {
		t.Errorf("HotTiles (%.6e) should equal the best heuristic (%.6e)", best.Predicted, minPred)
	}
	es, err := NewEstimates(g, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(es, cfg, Forced(Heuristic(99)), 0); err == nil {
		t.Error("expected unknown-heuristic error")
	}
}

// TestRunStrategies pins Run over every Strategy: a forced heuristic
// carries its heuristic and execution mode, the baselines are Predict of
// their own assignment, HotTiles is the best forced result among the
// heuristics it may use, unknown strategies fail, and the spellings hold.
func TestRunStrategies(t *testing.T) {
	g := imhMatrix(t, 256, 32, 600, 500, 3)
	for _, atomic := range []bool{false, true} {
		cfg := testConfig()
		cfg.AtomicRMW = atomic
		es, err := NewEstimates(g, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		runOK := func(s Strategy) Result {
			t.Helper()
			r, err := Run(es, cfg, s, 7)
			if err != nil {
				t.Fatalf("atomic=%v %v: %v", atomic, s, err)
			}
			if len(r.Hot) != len(g.Tiles) {
				t.Fatalf("atomic=%v %v: %d of %d tiles assigned", atomic, s, len(r.Hot), len(g.Tiles))
			}
			return r
		}

		minPred, applicable := math.Inf(1), 0
		byHeuristic := map[Heuristic]Result{}
		for h := MinTimeParallel; h < numHeuristics; h++ {
			r := runOK(Forced(h))
			if r.Heuristic != h || r.Serial != h.Serial() {
				t.Errorf("atomic=%v Forced(%v): heuristic %v serial %v", atomic, h, r.Heuristic, r.Serial)
			}
			byHeuristic[h] = r
			if atomic && h.Serial() {
				continue
			}
			applicable++
			minPred = math.Min(minPred, r.Predicted)
		}
		if want := map[bool]int{false: 4, true: 2}[atomic]; applicable != want {
			t.Fatalf("atomic=%v: %d applicable heuristics, want %d", atomic, applicable, want)
		}
		ht := runOK(HotTiles)
		if ht.Predicted != minPred {
			t.Errorf("atomic=%v: HotTiles predicted %.6e, best forced %.6e", atomic, ht.Predicted, minPred)
		}
		if atomic && ht.Serial {
			t.Errorf("atomic=%v: HotTiles picked serial %v", atomic, ht.Heuristic)
		}
		if !reflect.DeepEqual(ht, byHeuristic[ht.Heuristic]) {
			t.Errorf("atomic=%v: HotTiles differs from Forced(%v)", atomic, ht.Heuristic)
		}

		for _, s := range []Strategy{HotOnly, ColdOnly, IUnaware} {
			r := runOK(s)
			pred, tot, err := Predict(es, &cfg, r.Hot, r.Serial)
			if err != nil {
				t.Fatal(err)
			}
			if r.Predicted != pred || r.Totals != tot || r.Serial || r.Heuristic != 0 {
				t.Errorf("atomic=%v %v: %+v, Predict gives %.6e %+v", atomic, s, r, pred, tot)
			}
		}
		if r := runOK(HotOnly); !reflect.DeepEqual(r.Hot, AllHot(g)) {
			t.Errorf("atomic=%v: HotOnly is not all hot", atomic)
		}
		if r := runOK(ColdOnly); !reflect.DeepEqual(r.Hot, AllCold(g)) {
			t.Errorf("atomic=%v: ColdOnly is not all cold", atomic)
		}

		for _, s := range []Strategy{Forced(Heuristic(99)), Forced(-1), Strategy(-1), Strategy(4)} {
			if _, err := Run(es, cfg, s, 0); err == nil {
				t.Errorf("Run(%v) succeeded, want an unknown-strategy error", s)
			}
		}
	}

	for s, want := range map[Strategy]string{
		HotTiles: "HotTiles", IUnaware: "IUnaware", HotOnly: "HotOnly", ColdOnly: "ColdOnly",
		Forced(MinTimeParallel): "heur:MinTime Parallel", Forced(MinByteSerial): "heur:MinByte Serial",
		Strategy(-1): "Strategy(-1)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestAtomicRMWSkipsSerialHeuristics(t *testing.T) {
	g := imhMatrix(t, 256, 32, 600, 500, 4)
	cfg := testConfig()
	cfg.AtomicRMW = true
	res := run(t, g, cfg, HotTiles, 0)
	if res.Serial {
		t.Fatal("atomic-RMW architecture must not pick a serial heuristic")
	}
	if res.Heuristic != MinTimeParallel && res.Heuristic != MinByteParallel {
		t.Fatalf("picked %v", res.Heuristic)
	}
	// t_merge must be zero: predicted equals the bare parallel formula.
	want := maxf(maxf(res.Totals.HotTime, res.Totals.ColdTime), res.Totals.Bytes()/cfg.BWBytes)
	if math.Abs(res.Predicted-want) > 1e-15 {
		t.Fatalf("predicted %.3e, want %.3e (no merge)", res.Predicted, want)
	}
}

func TestMergeTimeCases(t *testing.T) {
	g := imhMatrix(t, 128, 16, 200, 100, 5)
	cfg := testConfig()
	// Homogeneous assignments need no merge.
	if mt := mergeTime(g, &cfg, AllCold(g)); mt != 0 {
		t.Fatalf("all-cold merge time %g", mt)
	}
	if mt := mergeTime(g, &cfg, AllHot(g)); mt != 0 {
		t.Fatalf("all-hot merge time %g", mt)
	}
	mixed := AllCold(g)
	mixed[0] = true
	want := MergeBytes(g.N, cfg.Params, cfg.Hot.ElemBytes) / cfg.BWBytes
	if mt := mergeTime(g, &cfg, mixed); math.Abs(mt-want) > 1e-18 {
		t.Fatalf("mixed merge time %g, want %g", mt, want)
	}
	cfg.AtomicRMW = true
	if mt := mergeTime(g, &cfg, mixed); mt != 0 {
		t.Fatalf("atomic merge time %g", mt)
	}
}

func TestDegeneratePools(t *testing.T) {
	g := imhMatrix(t, 128, 16, 200, 100, 6)
	cfg := testConfig()
	cfg.Hot = hotWorker(1)
	cfg.Hot.Count = 0
	cfg.Hot.Count = 0
	// Count 0 fails worker validation in the model but the partitioner must
	// still handle it for iso-scale exploration; bypass validation by using
	// count 0 directly.
	res := run(t, g, cfg, HotTiles, 0)
	for _, h := range res.Hot {
		if h {
			t.Fatal("tiles assigned to empty hot pool")
		}
	}
	cfg = testConfig()
	cfg.Cold.Count = 0
	res = run(t, g, cfg, HotTiles, 0)
	for _, h := range res.Hot {
		if !h {
			t.Fatal("tiles assigned to empty cold pool")
		}
	}
}

func TestIUnawareFractionAndDeterminism(t *testing.T) {
	g := imhMatrix(t, 256, 32, 600, 500, 8)
	cfg := testConfig()
	r1 := run(t, g, cfg, IUnaware, 42)
	r2 := run(t, g, cfg, IUnaware, 42)
	for i := range r1.Hot {
		if r1.Hot[i] != r2.Hot[i] {
			t.Fatal("IUnaware not deterministic for equal seeds")
		}
	}
	// The fraction of hot tiles follows Equation 1: recompute it here.
	nHot := 0
	for _, h := range r1.Hot {
		if h {
			nHot++
		}
	}
	if nHot == 0 || nHot == len(r1.Hot) {
		t.Fatalf("IUnaware degenerate split: %d/%d hot", nHot, len(r1.Hot))
	}
	// Different seeds give different assignments (same count).
	r3 := run(t, g, cfg, IUnaware, 43)
	same := true
	for i := range r1.Hot {
		if r1.Hot[i] != r3.Hot[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical random assignment")
	}
}

func TestIUnawareDegeneratePools(t *testing.T) {
	g := imhMatrix(t, 128, 16, 200, 100, 9)
	cfg := testConfig()
	cfg.Hot.Count = 0
	r := run(t, g, cfg, IUnaware, 1)
	for _, h := range r.Hot {
		if h {
			t.Fatal("hot tiles with empty hot pool")
		}
	}
	cfg = testConfig()
	cfg.Cold.Count = 0
	r = run(t, g, cfg, IUnaware, 1)
	for _, h := range r.Hot {
		if !h {
			t.Fatal("cold tiles with empty cold pool")
		}
	}
}

func TestPredictValidation(t *testing.T) {
	g := imhMatrix(t, 128, 16, 200, 100, 10)
	cfg := testConfig()
	es, err := NewEstimates(g, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Predict(es, &cfg, make([]bool, 1), false); err == nil {
		t.Fatal("expected assignment-length error")
	}
	if _, _, err := Predict(nil, &cfg, AllCold(g), false); err == nil {
		t.Fatal("expected nil-estimates error")
	}
	short := &Estimates{Grid: g, Hot: es.Hot[:1], Cold: es.Cold}
	if _, err := Run(short, cfg, HotTiles, 0); err == nil {
		t.Fatal("expected estimates-coverage error")
	}
	for name, mutate := range map[string]func(*Config){
		"bandwidth":  func(c *Config) { c.BWBytes = 0 },
		"nil-worker": func(c *Config) { c.Hot = nil },
		"params":     func(c *Config) { c.Params.K = 0 },
	} {
		bad := cfg
		mutate(&bad)
		if _, _, err := Predict(es, &bad, AllCold(g), false); err == nil {
			t.Errorf("Predict: expected %s error", name)
		}
		if _, err := NewEstimates(g, &bad); err == nil {
			t.Errorf("NewEstimates: expected %s error", name)
		}
		for _, s := range []Strategy{HotTiles, IUnaware, HotOnly, Forced(MinTimeParallel)} {
			if _, err := Run(es, bad, s, 1); err == nil {
				t.Errorf("Run(%v): expected %s error", s, name)
			}
		}
	}
}

func TestSerialVsParallelFormulas(t *testing.T) {
	g := imhMatrix(t, 128, 16, 300, 200, 11)
	cfg := testConfig()
	es, err := NewEstimates(g, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := make([]bool, len(g.Tiles))
	for i := range hot {
		hot[i] = i%2 == 0
	}
	pp, tt, err := Predict(es, &cfg, hot, false)
	if err != nil {
		t.Fatal(err)
	}
	ps, ts, err := Predict(es, &cfg, hot, true)
	if err != nil {
		t.Fatal(err)
	}
	if tt != ts {
		t.Fatal("totals must not depend on execution mode")
	}
	wantP := maxf(maxf(tt.HotTime, tt.ColdTime), tt.Bytes()/cfg.BWBytes) +
		MergeBytes(g.N, cfg.Params, 4)/cfg.BWBytes
	wantS := maxf(tt.HotTime, tt.HotBytes/cfg.BWBytes) + maxf(tt.ColdTime, tt.ColdBytes/cfg.BWBytes)
	if math.Abs(pp-wantP) > 1e-15 || math.Abs(ps-wantS) > 1e-15 {
		t.Fatalf("formulas: parallel %.3e want %.3e; serial %.3e want %.3e", pp, wantP, ps, wantS)
	}
}

func TestHotNNZ(t *testing.T) {
	g := imhMatrix(t, 128, 16, 300, 200, 12)
	res := Result{Hot: AllHot(g)}
	nnz, frac := res.HotNNZ(g)
	if nnz != g.NNZ() || frac != 1 {
		t.Fatalf("all hot: nnz=%d frac=%g", nnz, frac)
	}
	res = Result{Hot: AllCold(g)}
	if nnz, frac := res.HotNNZ(g); nnz != 0 || frac != 0 {
		t.Fatalf("all cold: nnz=%d frac=%g", nnz, frac)
	}
}

// TestCutoffMonotonicity: with the MinByte objective, exactly the tiles
// whose hot traffic is below their cold traffic end up hot (the objective
// decreases while the sorted difference stays negative).
func TestCutoffMinByteSemantics(t *testing.T) {
	g := imhMatrix(t, 256, 32, 800, 400, 13)
	cfg := testConfig()
	r := run(t, g, cfg, Forced(MinByteParallel), 0)
	eh := model.EstimateGrid(cfg.Hot, g, cfg.Params)
	ec := model.EstimateGrid(cfg.Cold, g, cfg.Params)
	for i := range g.Tiles {
		d := eh[i].Bytes - ec[i].Bytes
		if d < 0 && !r.Hot[i] {
			t.Fatalf("tile %d saves %.0f bytes hot but is cold", i, -d)
		}
		if d > 0 && r.Hot[i] {
			t.Fatalf("tile %d costs %.0f extra bytes hot but is hot", i, d)
		}
	}
}
