package analysis_test

import (
	"fmt"
	"go/ast"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// fireAnalyzer reports on every function whose name starts with Bad;
// quietAnalyzer is a real suite member that never fires. Together they
// cover every branch of the suppression audit without dragging the real
// passes into the driver's own tests.
func fireAnalyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "fire",
		Doc:  "reports every function named Bad*",
		Run: func(pass *analysis.Pass) error {
			pass.Inspect(func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Bad") {
					pass.Reportf(fd.Pos(), "Bad function %s", fd.Name.Name)
				}
				return true
			})
			return nil
		},
	}
}

func quietAnalyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "quiet",
		Doc:  "never reports",
		Run:  func(*analysis.Pass) error { return nil },
	}
}

// lines renders diagnostics as "analyzer:line:message" for compact
// comparison against the audit fixture's pinned layout.
func lines(diags []analysis.Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%s", d.Analyzer, d.Posn.Line, d.Message))
	}
	return out
}

func diffLines(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("diagnostic %d:\n  got  %s\n  want %s", i, g, w)
		}
	}
}

// TestAuditFullSuite runs the audit fixture with the two-analyzer suite:
// stale and unknown directives become lintignore findings,
// used directives stay silent, and the directive naming the auditor itself
// cannot suppress its own finding.
func TestAuditFullSuite(t *testing.T) {
	pkg := analysistest.LoadPackage(t, "testdata", "audit")
	suite := []*analysis.Analyzer{fireAnalyzer(), quietAnalyzer()}
	diags, err := analysis.RunChecked([]*analysis.Package{pkg}, suite)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, lines(diags), []string{
		"fire:9:Bad function BadLoud",
		"lintignore:11:stale //lint:ignore: fire does not fire here",
		`lintignore:14://lint:ignore names unknown analyzer "bogus"`,
		"lintignore:17:stale //lint:ignore: quiet does not fire here",
		"lintignore:20:stale //lint:ignore all: no analyzer fires here",
		`lintignore:26://lint:ignore names unknown analyzer "lintignore"`,
		"fire:30:Bad function BadNoReason",
	})
}

// TestAuditDisabled pins Run's contract: no audit — only
// unsuppressed analyzer findings come back, so analysistest fixtures can
// carry directives for analyzers outside the one under test.
func TestAuditDisabled(t *testing.T) {
	pkg := analysistest.LoadPackage(t, "testdata", "audit")
	suite := []*analysis.Analyzer{fireAnalyzer(), quietAnalyzer()}
	diags, err := analysis.Run([]*analysis.Package{pkg}, suite)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, lines(diags), []string{
		"fire:9:Bad function BadLoud",
		"fire:30:Bad function BadNoReason",
	})
}
