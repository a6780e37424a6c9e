package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/partition"
)

// StrategyRow holds one matrix's runtimes for the standard strategy set and
// the speedups relative to the worst homogeneous execution, the figure 4/10/
// 11/15 presentation.
type StrategyRow struct {
	Short string
	// Times in seconds by strategy.
	Times map[partition.Strategy]float64
	// Speedups over the worst homogeneous execution by strategy.
	Speedups map[partition.Strategy]float64
	// BestHom is min(HotOnly, ColdOnly).
	BestHom float64
}

func makeRow(short string, times map[partition.Strategy]float64) StrategyRow {
	worst := times[partition.HotOnly]
	if times[partition.ColdOnly] > worst {
		worst = times[partition.ColdOnly]
	}
	best := times[partition.HotOnly]
	if times[partition.ColdOnly] < best {
		best = times[partition.ColdOnly]
	}
	row := StrategyRow{Short: short, Times: times, Speedups: map[partition.Strategy]float64{}, BestHom: best}
	for s, t := range times {
		row.Speedups[s] = worst / t
	}
	return row
}

// StrategyStudy is the shared shape of Figures 4, 10, 11 and 15: the
// strategy set run over a benchmark suite on one architecture.
type StrategyStudy struct {
	ArchName   string
	Strategies []partition.Strategy
	Rows       []StrategyRow
	// AvgSpeedupOver[s] is HotTiles' geometric-mean speedup over strategy
	// s, AvgSpeedupOverBestHom the one over BestHomogeneous; both are set
	// only when the strategy set includes HotTiles.
	AvgSpeedupOver        map[partition.Strategy]float64
	AvgSpeedupOverBestHom float64
}

// paperStrategies is the strategy set of Figures 10, 11 and 15 and
// Tables VI and VII.
var paperStrategies = []partition.Strategy{partition.HotOnly, partition.ColdOnly, partition.IUnaware, partition.HotTiles}

// strategyGrid is the shared shape of most §VIII studies: one cached run
// per (architecture, benchmark, strategy) cell. The cells run concurrently;
// each writes only its own slot and every projection walks the slots in
// order, so the results are bit-identical to the serial evaluation.
type strategyGrid struct {
	archs      []arch.Arch
	suite      []gen.Benchmark
	strategies []partition.Strategy
	runs       []*runOut
}

// strategyGrid runs every (architecture, benchmark, strategy) cell at the
// given gSpMM intensity.
func (e *Env) strategyGrid(archs []arch.Arch, suite []gen.Benchmark, strategies []partition.Strategy, opsPerMAC float64) (*strategyGrid, error) {
	g := &strategyGrid{archs: archs, suite: suite, strategies: strategies,
		runs: make([]*runOut, len(archs)*len(suite)*len(strategies))}
	if err := par.ForEachErr(len(g.runs), func(i int) error {
		a := archs[i/(len(suite)*len(strategies))]
		b, s := suite[i/len(strategies)%len(suite)], strategies[i%len(strategies)]
		r, err := e.exec(a, b, s, opsPerMAC)
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", a.Name, b.Short, s, err)
		}
		g.runs[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// at returns the run of architecture ai, benchmark bi, strategy si.
func (g *strategyGrid) at(ai, bi, si int) *runOut {
	return g.runs[(ai*len(g.suite)+bi)*len(g.strategies)+si]
}

// study projects architecture ai's cells onto the Figure 4/10/11/15
// layout: speedups over the worst homogeneous execution per matrix, and
// HotTiles' geometric-mean speedup over every other strategy.
func (g *strategyGrid) study(ai int) *StrategyStudy {
	st := &StrategyStudy{ArchName: g.archs[ai].Name, Strategies: g.strategies}
	ratios := map[partition.Strategy][]float64{}
	var bestHom []float64
	for bi, b := range g.suite {
		times := map[partition.Strategy]float64{}
		for si, s := range g.strategies {
			times[s] = g.at(ai, bi, si).Time
		}
		row := makeRow(b.Short, times)
		st.Rows = append(st.Rows, row)
		if ht, ok := times[partition.HotTiles]; ok {
			for _, s := range g.strategies {
				if s == partition.HotTiles {
					continue
				}
				ratios[s] = append(ratios[s], times[s]/ht)
			}
			bestHom = append(bestHom, row.BestHom/ht)
		}
	}
	if len(bestHom) > 0 {
		st.AvgSpeedupOver = map[partition.Strategy]float64{}
		for s, rs := range ratios {
			st.AvgSpeedupOver[s] = geomean(rs)
		}
		st.AvgSpeedupOverBestHom = geomean(bestHom)
	}
	return st
}

// strategyStudies runs strategies over suite on every architecture, one
// StrategyStudy each.
func (e *Env) strategyStudies(archs []arch.Arch, suite []gen.Benchmark, strategies []partition.Strategy) (StrategyStudies, error) {
	g, err := e.strategyGrid(archs, suite, strategies, 2)
	if err != nil {
		return nil, err
	}
	out := make(StrategyStudies, len(archs))
	for ai := range archs {
		out[ai] = g.study(ai)
	}
	return out, nil
}

// runStudy is strategyStudies on one architecture.
func (e *Env) runStudy(a arch.Arch, suite []gen.Benchmark, strategies []partition.Strategy) (*StrategyStudy, error) {
	sts, err := e.strategyStudies([]arch.Arch{a}, suite, strategies)
	if err != nil {
		return nil, err
	}
	return sts[0], nil
}

// spadeScales returns SPADE-Sextans at each Table IV system scale.
func spadeScales(scales ...int) []arch.Arch {
	out := make([]arch.Arch, len(scales))
	for i, s := range scales {
		out[i] = arch.SpadeSextans(s)
	}
	return out
}

// Render prints the study in the paper's layout: one row per matrix with
// speedups over the worst homogeneous execution.
func (st *StrategyStudy) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — speedup over worst homogeneous execution\n", st.ArchName)
	fmt.Fprintf(w, "%-6s", "matrix")
	for _, s := range st.Strategies {
		fmt.Fprintf(w, "%12s", s)
	}
	fmt.Fprintln(w)
	for _, row := range st.Rows {
		fmt.Fprintf(w, "%-6s", row.Short)
		for _, s := range st.Strategies {
			fmt.Fprintf(w, "%12.2f", row.Speedups[s])
		}
		fmt.Fprintln(w)
	}
	if st.AvgSpeedupOver != nil {
		fmt.Fprintf(w, "HotTiles average speedup:")
		for _, s := range st.Strategies {
			if s == partition.HotTiles {
				continue
			}
			fmt.Fprintf(w, "  %.2fx vs %s", st.AvgSpeedupOver[s], s)
		}
		fmt.Fprintf(w, "  %.2fx vs BestHomogeneous\n", st.AvgSpeedupOverBestHom)
	}
}

// StrategyStudies is one StrategyStudy per architecture (Figures 4, 15).
type StrategyStudies []*StrategyStudy

// Render prints each study in turn.
func (sts StrategyStudies) Render(w io.Writer) {
	for _, st := range sts {
		st.Render(w)
	}
}

// Fig4 compares IUnaware heterogeneous execution against the homogeneous
// executions on SPADE-Sextans (scale 4) and PIUMA — the motivation study of
// §III-B showing that IMH-unaware partitioning is unimpressive against the
// best homogeneous baseline.
func (e *Env) Fig4() (StrategyStudies, error) {
	return e.strategyStudies([]arch.Arch{arch.SpadeSextans(4), arch.PIUMA()}, gen.Benchmarks(),
		[]partition.Strategy{partition.HotOnly, partition.ColdOnly, partition.IUnaware})
}

// Fig5Result is the tile-assignment visualization of Figure 5: for the pap
// matrix on SPADE-Sextans, which tiles each method sends to the hot
// workers, and the resulting share of nonzeros.
type Fig5Result struct {
	NumTR, NumTC int
	// HotIUnaware/HotHotTiles list the hot tiles as (tr, tc) pairs.
	HotIUnaware, HotHotTiles [][2]int
	// HotNNZFracIUnaware/HotNNZFracHotTiles are the fractions of nonzeros
	// assigned to hot workers (the paper reports 52% vs 72%).
	HotNNZFracIUnaware, HotNNZFracHotTiles float64
}

// Fig5 reproduces the assignment maps of Figure 5 on the pap mimic.
func (e *Env) Fig5() (*Fig5Result, error) {
	b, _ := gen.ByShort("pap")
	a := arch.SpadeSextans(4)
	iu, err := e.exec(a, b, partition.IUnaware, 2)
	if err != nil {
		return nil, err
	}
	ht, err := e.exec(a, b, partition.HotTiles, 2)
	if err != nil {
		return nil, err
	}
	g, err := e.Grid(b, e.TileSize())
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{NumTR: g.NumTR, NumTC: g.NumTC}
	for i, t := range g.Tiles {
		if iu.Part.Hot[i] {
			res.HotIUnaware = append(res.HotIUnaware, [2]int{t.TR, t.TC})
		}
		if ht.Part.Hot[i] {
			res.HotHotTiles = append(res.HotHotTiles, [2]int{t.TR, t.TC})
		}
	}
	_, res.HotNNZFracIUnaware = iu.Part.HotNNZ(g)
	_, res.HotNNZFracHotTiles = ht.Part.HotNNZ(g)
	return res, nil
}

// Render draws the two assignment maps as ASCII art ('#' = hot, '.' = cold
// or empty), downsampled to at most 64 columns.
func (f *Fig5Result) Render(w io.Writer) {
	draw := func(name string, hot [][2]int, frac float64) {
		fmt.Fprintf(w, "%s (hot tiles in '#', %.0f%% of nonzeros hot)\n", name, frac*100)
		step := 1
		for f.NumTC/step > 64 {
			step++
		}
		rows := (f.NumTR + step - 1) / step
		cols := (f.NumTC + step - 1) / step
		grid := make([][]byte, rows)
		for i := range grid {
			grid[i] = []byte(strings.Repeat(".", cols))
		}
		for _, t := range hot {
			grid[t[0]/step][t[1]/step] = '#'
		}
		for _, line := range grid {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	draw("IUnaware", f.HotIUnaware, f.HotNNZFracIUnaware)
	draw("HotTiles", f.HotHotTiles, f.HotNNZFracHotTiles)
}

// Fig10 is the main SPADE-Sextans comparison (scale 4): HotOnly, ColdOnly,
// IUnaware and HotTiles per matrix.
func (e *Env) Fig10() (*StrategyStudy, error) {
	return e.runStudy(arch.SpadeSextans(4), gen.Benchmarks(), paperStrategies)
}

// Fig11 is the same comparison on PIUMA.
func (e *Env) Fig11() (*StrategyStudy, error) {
	return e.runStudy(arch.PIUMA(), gen.Benchmarks(), paperStrategies)
}

// Fig13Result compares heterogeneous HotTiles at scale 4 against
// homogeneous architectures with twice the workers of one type (scale 8).
type Fig13Result struct {
	Rows                          []Fig13Row
	AvgVsHotOnly8, AvgVsColdOnly8 float64
}

// Fig13Row is one matrix's runtimes (seconds) and HotTiles4's speedups.
type Fig13Row struct {
	Short                      string
	VsHotOnly8, VsColdOnly8    float64
	HotTiles4, HotOnly8, Cold8 float64
}

// Fig13 reproduces the iso-resource comparison of Figure 13. The
// per-benchmark rows are computed concurrently into indexed slots.
func (e *Env) Fig13() (*Fig13Result, error) {
	suite := gen.Benchmarks()
	rows := make([]Fig13Row, len(suite))
	if err := par.ForEachErr(len(suite), func(i int) error {
		b := suite[i]
		ht4, err := e.exec(arch.SpadeSextans(4), b, partition.HotTiles, 2)
		if err != nil {
			return err
		}
		hot8, err := e.exec(arch.SpadeSextansSkewed(0, 8), b, partition.HotOnly, 2)
		if err != nil {
			return err
		}
		cold8, err := e.exec(arch.SpadeSextansSkewed(8, 0), b, partition.ColdOnly, 2)
		if err != nil {
			return err
		}
		rows[i] = Fig13Row{
			Short:       b.Short,
			VsHotOnly8:  hot8.Time / ht4.Time,
			VsColdOnly8: cold8.Time / ht4.Time,
			HotTiles4:   ht4.Time,
			HotOnly8:    hot8.Time,
			Cold8:       cold8.Time,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	out := &Fig13Result{Rows: rows}
	var vh, vc []float64
	for _, row := range rows {
		vh = append(vh, row.VsHotOnly8)
		vc = append(vc, row.VsColdOnly8)
	}
	out.AvgVsHotOnly8 = geomean(vh)
	out.AvgVsColdOnly8 = geomean(vc)
	return out, nil
}

// Render prints the Figure 13 series.
func (f *Fig13Result) Render(w io.Writer) {
	fmt.Fprintln(w, "HotTiles4 speedup over double-size homogeneous architectures")
	fmt.Fprintf(w, "%-6s%14s%14s\n", "matrix", "vs HotOnly8", "vs ColdOnly8")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-6s%14.2f%14.2f\n", r.Short, r.VsHotOnly8, r.VsColdOnly8)
	}
	fmt.Fprintf(w, "average: %.2fx vs HotOnly8, %.2fx vs ColdOnly8\n",
		f.AvgVsHotOnly8, f.AvgVsColdOnly8)
}

// Fig14Result is the gSpMM arithmetic-intensity sweep on the
// SPADE-Sextans+PCIe architecture.
type Fig14Result struct {
	Rows                                      []Fig14Row
	AvgVsHotOnly, AvgVsColdOnly, AvgVsBestHom float64
}

// Fig14Row is one intensity's suite averages.
type Fig14Row struct {
	SIMDOpsPerNNZ int     // the x axis of Figure 14
	VsHotOnly     float64 // HotTiles speedup over HotOnly
	VsColdOnly    float64
	HotNNZFrac    float64 // share of nonzeros assigned hot
	VsBestHom     float64
}

// Fig14 sweeps the kernel's arithmetic intensity (SIMD ops per nonzero) on
// the +PCIe architecture: at low intensity the cold workers absorb almost
// everything; as intensity grows the enhanced off-die Sextans wins work.
func (e *Env) Fig14() (*Fig14Result, error) {
	a := []arch.Arch{arch.SpadeSextansPCIe()}
	strategies := []partition.Strategy{partition.HotTiles, partition.HotOnly, partition.ColdOnly}
	out := &Fig14Result{}
	var vh, vc, vb []float64
	for _, ops := range []int{2, 8, 32, 128, 512} {
		g, err := e.strategyGrid(a, gen.Benchmarks(), strategies, float64(ops))
		if err != nil {
			return nil, err
		}
		var rh, rc, rb, fracs []float64
		for bi, b := range g.suite {
			ht, ho, co := g.at(0, bi, 0), g.at(0, bi, 1).Time, g.at(0, bi, 2).Time
			rh = append(rh, ho/ht.Time)
			rc = append(rc, co/ht.Time)
			rb = append(rb, min(ho, co)/ht.Time)
			tg, err := e.Grid(b, e.TileSize())
			if err != nil {
				return nil, err
			}
			_, frac := ht.Part.HotNNZ(tg)
			fracs = append(fracs, frac)
		}
		row := Fig14Row{SIMDOpsPerNNZ: ops, VsHotOnly: geomean(rh), VsColdOnly: geomean(rc),
			VsBestHom: geomean(rb), HotNNZFrac: mean(fracs)}
		out.Rows = append(out.Rows, row)
		vh = append(vh, row.VsHotOnly)
		vc = append(vc, row.VsColdOnly)
		vb = append(vb, row.VsBestHom)
	}
	out.AvgVsHotOnly = geomean(vh)
	out.AvgVsColdOnly = geomean(vc)
	out.AvgVsBestHom = geomean(vb)
	return out, nil
}

// Render prints the Figure 14 series.
func (f *Fig14Result) Render(w io.Writer) {
	fmt.Fprintln(w, "SPADE-Sextans+PCIe — HotTiles vs homogeneous across gSpMM intensity")
	fmt.Fprintf(w, "%12s%12s%12s%12s%12s\n", "ops/nnz", "vs HotOnly", "vs ColdOnly", "vs BestHom", "% nnz hot")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%12d%12.2f%12.2f%12.2f%11.0f%%\n",
			r.SIMDOpsPerNNZ, r.VsHotOnly, r.VsColdOnly, r.VsBestHom, r.HotNNZFrac*100)
	}
	fmt.Fprintf(w, "average: %.2fx vs HotOnly, %.2fx vs ColdOnly, %.2fx vs BestHomogeneous\n",
		f.AvgVsHotOnly, f.AvgVsColdOnly, f.AvgVsBestHom)
}

// Fig15 runs the higher-density Table VIII suite on SPADE-Sextans at system
// scales 1 and 4.
func (e *Env) Fig15() (StrategyStudies, error) {
	return e.strategyStudies(spadeScales(1, 4), gen.DenseBenchmarks(), paperStrategies)
}
