package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
)

// BenchmarkLintSuite self-hosts the full ten-analyzer suite over the
// already-loaded module — the cost of one `make lint` minus package
// loading. Tracked in BENCH_8.json so the lint gate's latency is part of
// the perf trajectory: a quadratic blowup in the CFG builder or the
// metricname whole-suite pass shows up as a benchmark regression, not as
// a mysteriously slow CI.
func BenchmarkLintSuite(b *testing.B) {
	pkgs, err := analysis.Load("../..", []string{"./..."})
	if err != nil {
		b.Fatalf("loading module: %v", err)
	}
	suite := passes.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, err := analysis.RunChecked(pkgs, suite)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("suite found %d diagnostics on the clean repo", len(diags))
		}
	}
}
