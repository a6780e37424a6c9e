// Package analysistest runs one analyzer over packages laid out GOPATH-
// style under a testdata/src directory and checks its diagnostics against
// `// want "regexp"` comments on the offending lines — the same contract
// as golang.org/x/tools/go/analysis/analysistest, reimplemented offline on
// the stdlib.
//
// Testdata packages may import each other by path (testdata/src/<path>),
// which is how stub packages mirroring the real tree (repro/internal/obs,
// repro/internal/par) give the path-scoped analyzers something to match.
// Standard-library imports are resolved from compiler export data via
// `go list -export`.
package analysistest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// Run loads each listed package from dir/src, applies the analyzer, and
// reports any mismatch between diagnostics and want comments as test
// errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	l := &loader{
		srcdir: filepath.Join(dir, "src"),
		fset:   token.NewFileSet(),
		pkgs:   map[string]*analysis.Package{},
	}
	for _, path := range pkgPaths {
		pkg, err := l.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, l.fset, pkg, diags)
	}
}

// LoadPackage loads one GOPATH-style package from dir/src/path and returns
// it, for driver-level tests that call the analysis driver directly instead
// of going through Run's want matching.
func LoadPackage(t *testing.T, dir, path string) *analysis.Package {
	t.Helper()
	l := &loader{
		srcdir: filepath.Join(dir, "src"),
		fset:   token.NewFileSet(),
		pkgs:   map[string]*analysis.Package{},
	}
	pkg, err := l.load(path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	return pkg
}

// want is one expectation: a regexp that must match a diagnostic message
// reported on its line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

// checkWants matches diagnostics against expectations one-to-one.
func checkWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, pkg)
	for _, d := range diags {
		matched := false
		for i, w := range wants {
			if w == nil || w.file != filepath.Base(d.Posn.Filename) || w.line != d.Posn.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				wants[i] = nil
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Posn, d.Message)
		}
	}
	for _, w := range wants {
		if w != nil {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// wantRE extracts the comment payload of a want comment; the payload must
// start with a quoted regexp so prose mentioning "want" is not mistaken
// for an expectation.
var wantRE = regexp.MustCompile("//\\s*want\\s+([\"`].*)$")

// collectWants parses `// want "re1" "re2"` comments from every file.
func collectWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				for _, raw := range splitQuoted(t, posn, m[1]) {
					expr, err := strconv.Unquote(raw)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", posn, raw, err)
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", posn, raw, err)
					}
					wants = append(wants, &want{
						file: filepath.Base(posn.Filename),
						line: posn.Line,
						re:   re,
						raw:  raw,
					})
				}
			}
		}
	}
	return wants
}

// splitQuoted splits a want payload into its quoted (double or back quote)
// string literals.
func splitQuoted(t *testing.T, posn token.Position, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		var end int
		switch s[0] {
		case '"':
			end = strings.Index(s[1:], `"`)
		case '`':
			end = strings.Index(s[1:], "`")
		default:
			t.Fatalf("%s: malformed want payload at %q", posn, s)
		}
		if end < 0 {
			t.Fatalf("%s: unterminated want string %q", posn, s)
		}
		out = append(out, s[:end+2])
		s = s[end+2:]
	}
}

// loader type-checks testdata packages from source, resolving imports to
// sibling testdata packages first and to stdlib export data otherwise.
type loader struct {
	srcdir string
	fset   *token.FileSet
	pkgs   map[string]*analysis.Package

	stdOnce sync.Once
	std     types.Importer
}

// stdImporter returns the loader's shared gc export-data importer for the
// standard library. One instance per loader so every import of a stdlib
// package yields the identical *types.Package (type identity across
// testdata packages depends on it).
func (l *loader) stdImporter() types.Importer {
	l.stdOnce.Do(func() {
		l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
			m, err := stdExportFiles()
			if err != nil {
				return nil, err
			}
			f, ok := m[path]
			if !ok {
				return nil, fmt.Errorf("no stdlib export data for %q", path)
			}
			return os.Open(f)
		})
	})
	return l.std
}

// load parses and type-checks srcdir/path (caching by path; cycles among
// testdata packages are reported as errors).
func (l *loader) load(path string) (*analysis.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil // cycle marker

	dir := filepath.Join(l.srcdir, path)
	entries, dirErr := os.ReadDir(dir)
	if dirErr != nil {
		return nil, dirErr
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	info := analysis.NewInfo()
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if _, statErr := os.Stat(filepath.Join(l.srcdir, imp)); statErr == nil {
			pkg, err := l.load(imp)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
		return l.stdImporter().Import(imp)
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &analysis.Package{
		Path: path, Name: tpkg.Name(), Dir: dir,
		Files: files, Fset: l.fset, Types: tpkg, Info: info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// stdExports lazily maps stdlib import paths to export-data files via one
// `go list -export -deps std` invocation shared by every test in the
// process.
var stdExports = struct {
	once sync.Once
	m    map[string]string
	err  error
}{}

func stdExportFiles() (map[string]string, error) {
	stdExports.once.Do(func() {
		out, err := exec.Command("go", "list", "-export", "-e",
			"-json=ImportPath,Export", "std").Output()
		if err != nil {
			stdExports.err = fmt.Errorf("go list std: %w", err)
			return
		}
		m := map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				stdExports.err = err
				return
			}
			if p.Export != "" {
				m[p.ImportPath] = p.Export
			}
		}
		stdExports.m = m
	})
	return stdExports.m, stdExports.err
}
