package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/passes"
)

// TestRepoClean is the self-hosting smoke test: the full analyzer suite
// over the whole module must report nothing. A regression here means a
// change broke one of the repo invariants (or an analyzer grew a false
// positive — either way, it blocks).
func TestRepoClean(t *testing.T) {
	pkgs, err := analysis.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing the module", len(pkgs))
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", p.Path, p.TypeErrors)
		}
	}
	// RunChecked audits the shipped //lint:ignore directives too — a stale
	// one fails this test.
	diags, err := analysis.RunChecked(pkgs, passes.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Posn, d.Analyzer, d.Message)
	}
}

// TestSuiteShape pins the analyzer roster: names are unique, identifier-like
// (so //lint:ignore name lists can carry them) and documented.
func TestSuiteShape(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range passes.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if strings.ContainsAny(a.Name, " ,-=") {
			t.Errorf("analyzer name %q is not identifier-like", a.Name)
		}
	}
	if len(seen) != 10 {
		t.Errorf("suite has %d analyzers, want the ten-analyzer roster", len(seen))
	}
}
