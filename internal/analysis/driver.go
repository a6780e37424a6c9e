package analysis

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"slices"
	"strings"
)

// AuditName is the reserved analyzer name under which the driver reports
// suppression-audit findings (stale or unknown //lint:ignore directives).
// It is not itself suppressible: a directive that silences the auditor
// would defeat the audit.
const AuditName = "lintignore"

// Run applies every analyzer to every package and returns the surviving
// diagnostics, sorted by position then analyzer. Diagnostics on a line
// covered by a matching //lint:ignore directive are dropped. Run performs
// no suppression audit — analysistest fixtures legitimately carry
// directives for analyzers outside the one under test; the drivers use
// RunChecked.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return run(pkgs, analyzers, false)
}

// RunChecked is Run plus the suppression audit, for the drivers that run
// the whole suite: every //lint:ignore directive in the analyzed packages
// must name an analyzer in suite and must actually suppress a diagnostic.
// Violations surface as AuditName diagnostics, so a stale or misspelled
// suppression fails the lint run exactly like a finding would.
func RunChecked(pkgs []*Package, suite []*Analyzer) ([]Diagnostic, error) {
	return run(pkgs, suite, true)
}

func run(pkgs []*Package, analyzers []*Analyzer, audit bool) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if a.Begin != nil {
			a.Begin()
		}
	}
	var diags []Diagnostic
	var directives []*directive
	for _, pkg := range pkgs {
		ignores, dirs := collectIgnores(pkg)
		directives = append(directives, dirs...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				d.Analyzer = a.Name
				d.Posn = pkg.Fset.Position(d.Pos)
				if !ignores.covers(d) {
					diags = append(diags, d)
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	if audit {
		diags = append(diags, auditDirectives(directives, analyzers)...)
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		if c := strings.Compare(a.Posn.Filename, b.Posn.Filename); c != 0 {
			return c
		}
		if a.Posn.Line != b.Posn.Line {
			return cmp.Compare(a.Posn.Line, b.Posn.Line)
		}
		if a.Posn.Column != b.Posn.Column {
			return cmp.Compare(a.Posn.Column, b.Posn.Column)
		}
		return strings.Compare(a.Analyzer, b.Analyzer)
	})
	return diags, nil
}

// auditDirectives checks every collected directive name against the suite
// and its usage during this run.
func auditDirectives(directives []*directive, suite []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, d := range directives {
		for _, name := range d.names {
			var msg string
			switch {
			case name == "all":
				if !d.used[name] {
					msg = "stale //lint:ignore all: no analyzer fires here"
				}
			case !known[name]:
				msg = fmt.Sprintf("//lint:ignore names unknown analyzer %q", name)
			case !d.used[name]:
				msg = fmt.Sprintf("stale //lint:ignore: %s does not fire here", name)
			}
			if msg != "" {
				out = append(out, Diagnostic{Posn: d.posn, Analyzer: AuditName, Message: msg})
			}
		}
	}
	return out
}

// directive is one parsed //lint:ignore comment, with per-name usage
// recorded as diagnostics are suppressed.
type directive struct {
	names []string
	posn  token.Position
	used  map[string]bool
}

// ignoreEntry points one covered line at one name of one directive.
type ignoreEntry struct {
	name string
	d    *directive
}

// ignoreSet records //lint:ignore directives: per file, the entries
// covering each line.
type ignoreSet map[string]map[int][]ignoreEntry

// covers reports whether d's line is suppressed for d.Analyzer, marking
// matching directives as used. Audit findings are never suppressible.
func (s ignoreSet) covers(d Diagnostic) bool {
	if d.Analyzer == AuditName {
		return false
	}
	hit := false
	for _, e := range s[d.Posn.Filename][d.Posn.Line] {
		if e.name == d.Analyzer || e.name == "all" {
			e.d.used[e.name] = true
			hit = true
		}
	}
	return hit
}

// collectIgnores scans each file's comments for suppression directives of
// the form
//
//	//lint:ignore name1,name2 reason
//
// A directive covers its own line (trailing-comment style) and the line
// after it (preceding-comment style). The reason is mandatory — a
// directive without one does not suppress anything, so a bare ignore can
// never silence a finding without leaving a written justification behind.
func collectIgnores(pkg *Package) (ignoreSet, []*directive) {
	set := ignoreSet{}
	var all []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				d := &directive{
					names: names,
					posn:  pkg.Fset.Position(c.Pos()),
					used:  map[string]bool{},
				}
				all = append(all, d)
				m := set[d.posn.Filename]
				if m == nil {
					m = map[int][]ignoreEntry{}
					set[d.posn.Filename] = m
				}
				for _, name := range names {
					m[d.posn.Line] = append(m[d.posn.Line], ignoreEntry{name, d})
					m[d.posn.Line+1] = append(m[d.posn.Line+1], ignoreEntry{name, d})
				}
			}
		}
	}
	return set, all
}

// parseIgnore extracts the analyzer names from one //lint:ignore comment.
// It requires a non-empty reason after the name list.
func parseIgnore(text string) ([]string, bool) {
	const prefix = "//lint:ignore "
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	fields := strings.Fields(text[len(prefix):])
	if len(fields) < 2 { // names + at least one reason word
		return nil, false
	}
	return strings.Split(fields[0], ","), true
}

// WriteText prints diagnostics in the conventional file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s: %s\n", d.Posn, d.Analyzer, d.Message)
	}
}

// jsonDiag is the -json serialization of one diagnostic.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	Posn     string `json:"posn"`
	Message  string `json:"message"`
}

// WriteJSON prints diagnostics as an indented JSON array (always an array,
// "[]" when clean, so scripts can parse unconditionally).
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{Analyzer: d.Analyzer, Posn: d.Posn.String(), Message: d.Message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Inspect walks every file in the pass with ast.Inspect.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
