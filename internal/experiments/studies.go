package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
)

// Renderer is a study result: it prints itself in the paper's layout.
type Renderer interface{ Render(w io.Writer) }

// Study is one registered experiment.
type Study struct {
	// Name is the spmmsim argument, the run manifest's span name, and the
	// stem of the study's golden file, testdata/golden/<Name>.golden.
	Name string
	// WallClock marks a study whose output holds host wall-clock
	// measurements; it differs on every run, so it has no golden file.
	WallClock bool
	// Run computes the study on e; ctx bounds any preprocessing it issues.
	Run func(ctx context.Context, e *Env) (Renderer, error)
}

// Studies is every experiment in `spmmsim all` order: the figures by
// number, the tables, then the studies beyond the paper alphabetically.
// cmd/spmmsim, the golden tests and the root benchmarks all iterate it.
var Studies = []Study{
	entry("fig4", (*Env).Fig4),
	entry("fig5", (*Env).Fig5),
	entry("fig10", (*Env).Fig10),
	entry("fig11", (*Env).Fig11),
	entry("fig12", (*Env).Fig12),
	entry("fig13", (*Env).Fig13),
	entry("fig14", (*Env).Fig14),
	entry("fig15", (*Env).Fig15),
	entry("fig16", (*Env).Fig16),
	entry("fig17", (*Env).Fig17),
	wallClock(ctxEntry("fig18", (*Env).Fig18)),
	entry("tab6", (*Env).TableVI),
	entry("tab7", (*Env).TableVII),
	entry("tab9", (*Env).TableIX),
	// Beyond the paper: evolving graphs with the model-driven re-plan
	// trigger, and the §VI-B multi-layer GNN loop (DESIGN.md §15).
	ctxEntry("evolve", (*Env).Evolve),
	ctxEntry("gnn", (*Env).GNN),
	// Beyond the paper: §X's SpMV and SDDMM kernels, the §IX-D/§X
	// reordering ablation, and vis_lat miscalibration (DESIGN.md §8).
	entry("kernels", (*Env).Kernels),
	entry("reorder", (*Env).Reorder),
	entry("vislat", (*Env).VisLat),
}

// Resolve maps spmmsim arguments to studies: "all" alone is every study,
// otherwise each name must be registered. Every name is checked before
// Resolve returns, so a typo late in the list fails before anything runs.
func Resolve(names []string) ([]Study, error) {
	if len(names) == 1 && names[0] == "all" {
		return Studies, nil
	}
	out := make([]Study, 0, len(names))
	for _, name := range names {
		i := slices.IndexFunc(Studies, func(s Study) bool { return s.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		out = append(out, Studies[i])
	}
	return out, nil
}

// entry registers a study that needs no context.
func entry[R Renderer](name string, run func(*Env) (R, error)) Study {
	return ctxEntry(name, func(e *Env, _ context.Context) (R, error) { return run(e) })
}

// ctxEntry registers a study that threads the caller's context.
func ctxEntry[R Renderer](name string, run func(*Env, context.Context) (R, error)) Study {
	return Study{Name: name, Run: func(ctx context.Context, e *Env) (Renderer, error) {
		r, err := run(e, ctx)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// wallClock marks s as measuring host wall-clock time.
func wallClock(s Study) Study {
	s.WallClock = true
	return s
}
