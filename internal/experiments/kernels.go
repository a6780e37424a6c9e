package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/semiring"
	"repro/internal/sim"
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

// Kernels runs the kernel study on SPADE-Sextans (scale 4), one concurrent
// job per benchmark. The non-SpMM kernels deliberately bypass the Env's
// estimates cache (its keys do not carry the kernel) and partition directly.
func (e *Env) Kernels() (*KernelsStudy, error) {
	base := arch.SpadeSextans(4)
	base.TileH, base.TileW = e.TileSize(), e.TileSize()
	suite := gen.Benchmarks()
	rows := make([]KernelsRow, len(suite))
	if err := par.ForEachErr(len(suite), func(i int) error {
		b := suite[i]
		g, err := e.Grid(b, base.TileH)
		if err != nil {
			return err
		}
		row := KernelsRow{Short: b.Short}
		for _, k := range []model.Kernel{model.KernelSpMM, model.KernelSpMV, model.KernelSDDMM} {
			cfg := base.Config(2)
			cfg.Params.Kernel = k
			if k == model.KernelSpMV {
				cfg.Params.K = 1
			}
			es, err := partition.NewEstimates(g, &cfg)
			if err != nil {
				return err
			}
			res, err := partition.Run(es, cfg, partition.HotTiles, 0)
			if err != nil {
				return err
			}
			sr := semiring.PlusTimes()
			r, err := sim.Run(g, res.Hot, &base, nil, sim.Options{
				Serial: res.Serial, Kernel: k, Semiring: &sr, SkipFunctional: true,
			})
			if err != nil {
				return err
			}
			_, frac := res.HotNNZ(g)
			switch k {
			case model.KernelSpMM:
				row.SpMM, row.FracSpMM = r.Time, frac
			case model.KernelSpMV:
				row.SpMV, row.FracSpMV = r.Time, frac
			case model.KernelSDDMM:
				row.SDDMM, row.FracSDDMM = r.Time, frac
			}
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	out := &KernelsStudy{Rows: rows}
	var ratios []float64
	for _, row := range rows {
		ratios = append(ratios, row.SDDMM/row.SpMM)
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
