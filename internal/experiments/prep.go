package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/hotcore"
)

// Fig18Result is the preprocessing-cost breakdown of Figure 18: per matrix,
// the wall-clock share of the base (homogeneous) format creation vs the
// HotTiles-specific overhead (scan+model, partitioning, second format).
type Fig18Result struct {
	Rows []Fig18Row
	// AvgOverheadFrac is the mean HotTiles share of total preprocessing
	// (the paper reports 73% on PIUMA).
	AvgOverheadFrac float64
}

// Fig18Row is one matrix's measured breakdown in seconds.
type Fig18Row struct {
	Short        string
	BaseFormat   float64
	Scan         float64
	Partition    float64
	ExtraFormat  float64
	OverheadFrac float64
}

// Fig18 measures the Figure 7 preprocessing pipeline, format generation
// included, for the PIUMA architecture on the host machine (the paper uses
// a Xeon host; the breakdown structure, not the absolute seconds, is the
// reproduced result). ctx bounds every preprocessing run.
func (e *Env) Fig18(ctx context.Context) (*Fig18Result, error) {
	a := arch.PIUMA()
	a.TileH, a.TileW = e.TileSize(), e.TileSize()
	out := &Fig18Result{}
	var fracs []float64
	for _, b := range gen.Benchmarks() {
		m := e.Matrix(b)
		p, err := hotcore.PreprocessCtx(ctx, m, &a, hotcore.Options{OpsPerMAC: 2, Seed: e.Seed})
		if err != nil {
			return nil, err
		}
		hotcore.Formats(p)
		t := p.Timing
		total := t.Total().Seconds()
		row := Fig18Row{
			Short:       b.Short,
			BaseFormat:  t.BaseFormat.Seconds(),
			Scan:        t.Scan.Seconds(),
			Partition:   t.Partition.Seconds(),
			ExtraFormat: t.ExtraFormat.Seconds(),
		}
		if total > 0 {
			row.OverheadFrac = t.Overhead().Seconds() / total
		}
		out.Rows = append(out.Rows, row)
		fracs = append(fracs, row.OverheadFrac)
	}
	out.AvgOverheadFrac = mean(fracs)
	return out, nil
}

// Render prints the Figure 18 breakdown.
func (f *Fig18Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Preprocessing breakdown on the host for PIUMA (seconds)")
	fmt.Fprintf(w, "%-8s%12s%12s%12s%12s%14s\n",
		"matrix", "base fmt", "scan+model", "partition", "extra fmt", "overhead frac")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-8s%12.4f%12.4f%12.4f%12.4f%13.0f%%\n",
			r.Short, r.BaseFormat, r.Scan, r.Partition, r.ExtraFormat, r.OverheadFrac*100)
	}
	fmt.Fprintf(w, "average HotTiles share of preprocessing: %.0f%%\n", f.AvgOverheadFrac*100)
}
