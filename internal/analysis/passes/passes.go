// Package passes registers the repository's analyzer suite in its
// canonical order. cmd/hottileslint and the repo smoke test both consume
// this one list so a new analyzer lands everywhere by being appended here.
package passes

import (
	"repro/internal/analysis"
	"repro/internal/analysis/passes/ctxflow"
	"repro/internal/analysis/passes/detrand"
	"repro/internal/analysis/passes/errwrap"
	"repro/internal/analysis/passes/floateq"
	"repro/internal/analysis/passes/lockcopy"
	"repro/internal/analysis/passes/mapiter"
	"repro/internal/analysis/passes/metricname"
	"repro/internal/analysis/passes/nakedgo"
	"repro/internal/analysis/passes/shadow"
	"repro/internal/analysis/passes/spanend"
)

// All returns the full analyzer suite in reporting order: the first six,
// then the four dataflow-aware passes (DESIGN.md §16).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mapiter.Analyzer,
		nakedgo.Analyzer,
		spanend.Analyzer,
		floateq.Analyzer,
		lockcopy.Analyzer,
		shadow.Analyzer,
		detrand.Analyzer,
		ctxflow.Analyzer,
		errwrap.Analyzer,
		metricname.Analyzer,
	}
}
