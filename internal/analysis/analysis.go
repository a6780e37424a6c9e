// Package analysis is the repository's static-analysis framework: a
// stdlib-only re-implementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a package loader and a driver
// with //lint:ignore suppression. It exists because the module is built
// offline — x/tools is not vendored — and because the invariants PR 1 and
// PR 2 introduced (serial-identical parallel fan-out, pool-only goroutines,
// always-closed spans; DESIGN.md §9–§11) are exactly the kind of property a
// reviewer misses and a syntax+types pass catches mechanically.
//
// The subset implemented here is deliberately small: no facts, no
// cross-package dependencies between analyzers, no suggested fixes. Each
// analyzer sees one type-checked package at a time and reports positioned
// diagnostics; cmd/hottileslint drives the whole suite over the module.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Unlike x/tools there are no
// Requires/ResultOf edges: every analyzer is self-contained over a single
// package's syntax and types.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. It must be a valid Go identifier.
	Name string
	// Doc is the one-paragraph description shown by -help; its first line
	// states the invariant the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Report. The error return is for operational failures (it aborts
	// the run), not for findings.
	Run func(pass *Pass) error
	// Begin, if set, is called once at the start of each driver run, before
	// any package is analyzed. It exists for whole-suite state (metricname's
	// cross-package collision map).
	Begin func()
}

// Pass is the interface between the driver and one (analyzer, package)
// application.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver fills in positions and
	// suppression; analyzers just call Report/Reportf.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Filled in by the driver before diagnostics reach the user.
	Analyzer string         `json:"analyzer"`
	Posn     token.Position `json:"-"`
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PathHasSuffix reports whether the package import path equals suffix or
// ends in "/"+suffix. Analyzers scope themselves by path suffix (e.g.
// "internal/par") so the analysistest stub packages — which mirror the real
// layout under testdata/src — fall under the same rules as the real tree.
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	n := len(path) - len(suffix)
	return n > 0 && path[n-1] == '/' && path[n:] == suffix
}

// PathHasAnySuffix reports whether the path matches any of the suffixes.
func PathHasAnySuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if PathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// IsNamed reports whether t (after unwrapping one pointer level) is the
// named type pkgSuffix.name, matching the defining package by path suffix.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// RootIdent unwraps selectors, indexes, derefs and parens to the base
// identifier of an lvalue-ish expression: st.Rows[i].X → st. Returns nil
// when the base is not a plain identifier (e.g. a call result).
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Unparen strips any number of enclosing parentheses.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ObjectOf resolves an identifier through Uses then Defs.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// CalleeFunc returns the called *types.Func for a call expression (method
// or package-level function), or nil.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.ObjectOf(fun).(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return f
	}
	return nil
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (pkgPath matched exactly: "fmt", "sort", …).
func (p *Pass) IsPkgFunc(call *ast.CallExpr, pkgPath, name string) bool {
	f := p.CalleeFunc(call)
	if f == nil || f.Name() != name || f.Pkg() == nil {
		return false
	}
	return f.Pkg().Path() == pkgPath
}
