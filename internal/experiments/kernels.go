package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/partition"
)

// KernelsRow is one matrix's HotTiles outcome for the three kernels.
type KernelsRow struct {
	Short string
	// Times (seconds) and hot-nonzero fractions per kernel.
	SpMM, SpMV, SDDMM             float64
	FracSpMM, FracSpMV, FracSDDMM float64
}

// KernelsStudy extends the paper's evaluation to the kernels §X names as
// direct applications of HotTiles: SpMV (K = 1) and SDDMM (sparse output).
type KernelsStudy struct {
	Rows []KernelsRow
	// AvgSDDMMOverSpMM is the geomean SDDMM/SpMM runtime ratio (< 1: the
	// sparse output makes SDDMM cheaper at equal K).
	AvgSDDMMOverSpMM float64
}

// Kernels runs the kernel study on SPADE-Sextans (scale 4): HotTiles
// under each kernel, one cell per (kernel, benchmark). The SpMM column is
// Fig 10's HotTiles cells.
func (e *Env) Kernels() (*KernelsStudy, error) {
	a := arch.SpadeSextans(4)
	g, err := e.grid([]cell{{arch: a}, {arch: a, kernel: model.KernelSpMV}, {arch: a, kernel: model.KernelSDDMM}},
		gen.Benchmarks(), partition.HotTiles)
	if err != nil {
		return nil, err
	}
	out := &KernelsStudy{}
	var ratios []float64
	for bi, b := range g.suite {
		spmm, spmv, sddmm := g.at(0, bi, 0), g.at(1, bi, 0), g.at(2, bi, 0)
		out.Rows = append(out.Rows, KernelsRow{Short: b.Short,
			SpMM: spmm.Time, SpMV: spmv.Time, SDDMM: sddmm.Time,
			FracSpMM: spmm.HotFrac, FracSpMV: spmv.HotFrac, FracSDDMM: sddmm.HotFrac})
		ratios = append(ratios, sddmm.Time/spmm.Time)
	}
	out.AvgSDDMMOverSpMM = geomean(ratios)
	return out, nil
}

// Render prints the kernel study.
func (k *KernelsStudy) Render(w io.Writer) {
	fmt.Fprintln(w, "HotTiles across kernels (SPADE-Sextans 4-4) — runtime ms / hot nnz %")
	fmt.Fprintf(w, "%-8s%18s%18s%18s\n", "matrix", "SpMM", "SpMV (K=1)", "SDDMM")
	for _, r := range k.Rows {
		fmt.Fprintf(w, "%-8s%12.4f/%3.0f%%%12.4f/%3.0f%%%12.4f/%3.0f%%\n",
			r.Short, r.SpMM*1e3, r.FracSpMM*100,
			r.SpMV*1e3, r.FracSpMV*100,
			r.SDDMM*1e3, r.FracSDDMM*100)
	}
	fmt.Fprintf(w, "SDDMM runs at %.2fx of SpMM's time on average (sparse output)\n",
		k.AvgSDDMMOverSpMM)
}
