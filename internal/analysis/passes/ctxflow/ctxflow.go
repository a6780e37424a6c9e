// Package ctxflow guards the context chain below the hotcore facade. PR 6
// threaded per-request deadlines through hotcore.PreprocessCtx so daemon
// backpressure actually cancels abandoned preprocessing (DESIGN.md §14); a
// context minted from context.Background() anywhere below that facade
// silently detaches the work from its caller's deadline.
//
// Two rules:
//
//  1. context.Background() and context.TODO() are banned inside internal
//     packages (the facade's cmd/, examples/ and test callers legitimately
//     mint roots; internal/obs owns its own shutdown deadline and is
//     exempt).
//  2. A function that receives a context.Context must thread it: every
//     context-typed argument it passes must derive from the parameter —
//     the parameter itself, a variable assigned from a context-returning
//     call fed by a derived context (context.WithTimeout(ctx, d)), or a
//     call whose own arguments include one. Derivation is tracked
//     flow-sensitively on the CFG, so a reassignment like
//     `ctx = context.Background()` severs it on the paths below. Function
//     literals inside the function may use any context the enclosing body
//     ever derived (captured contexts are threaded, not minted).
//
// The pass cannot see a context-capable sibling called through a
// context-free wrapper (a wrapper minting a root for PreprocessCtx would be
// invisible at its callsites); that interprocedural gap is documented in
// DESIGN.md §16 and held shut by rule 1.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// exemptSuffixes lists internal packages allowed to mint root contexts:
// the observability layer's graceful-stop deadline has no caller to
// inherit from.
var exemptSuffixes = []string{"internal/obs"}

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "functions receiving a context.Context must thread it to every context-capable callee; " +
		"no context.Background()/TODO() below the facade (internal packages)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	banRoots := strings.Contains("/"+pass.Pkg.Path(), "/internal/") &&
		!analysis.PathHasAnySuffix(pass.Pkg.Path(), exemptSuffixes)
	if banRoots {
		pass.Inspect(func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, name := range []string{"Background", "TODO"} {
				if pass.IsPkgFunc(call, "context", name) {
					pass.Reportf(call.Pos(),
						"context.%s below the facade: internal code inherits its context from the caller", name)
				}
			}
			return true
		})
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	return t != nil && t.String() == "context.Context"
}

// ctxParams collects the context-typed parameter objects of a function
// type.
func ctxParams(pass *analysis.Pass, ft *ast.FuncType) analysis.ObjSet {
	set := analysis.ObjSet{}
	if ft.Params == nil {
		return set
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil && isContext(obj.Type()) {
				set[obj] = true
			}
		}
	}
	return set
}

// checkFunc applies rule 2 to one declared function.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	seed := ctxParams(pass, fd.Type)
	if len(seed) == 0 {
		return
	}
	g := analysis.NewCFG(fd.Body)

	// everDerived accumulates every object that was derived at any point,
	// for the flow-insensitive check inside function literals.
	everDerived := seed.Clone()

	transfer := func(n ast.Node, set analysis.ObjSet) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		transferAssign(pass, as, set)
		for o := range set {
			everDerived[o] = true
		}
	}

	visit := func(n ast.Node, in analysis.ObjSet) {
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // checked flow-insensitively below
			}
			if call, ok := m.(*ast.CallExpr); ok {
				checkCallArgs(pass, call, in)
			}
			return true
		})
	}
	analysis.SolveForward(g, seed, transfer, visit)

	// Function literals: captured contexts count as derived if the outer
	// body ever derived them; a literal's own context parameters join in.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		inner := everDerived.Clone()
		inner.Union(ctxParams(pass, lit.Type))
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				checkCallArgs(pass, call, inner)
			}
			return true
		})
		return true
	})
}

// transferAssign marks variables assigned from derived contexts:
// `ctx2 := context.WithTimeout(ctx, d)`-style calls (any tuple position of
// context type becomes derived when an argument is derived) and plain
// copies. Any other assignment to a context variable severs it.
func transferAssign(pass *analysis.Pass, as *ast.AssignStmt, set analysis.ObjSet) {
	rhsDerived := func(i int) bool {
		if len(as.Lhs) == len(as.Rhs) {
			return derivedExpr(pass, as.Rhs[i], set)
		}
		// ctx, cancel := f(...): one multi-value call feeds every slot.
		return derivedExpr(pass, as.Rhs[0], set)
	}
	for i, lhs := range as.Lhs {
		id, ok := analysis.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.ObjectOf(id)
		if obj == nil || !isContext(obj.Type()) {
			continue
		}
		if rhsDerived(i) {
			set[obj] = true
		} else {
			delete(set, obj)
		}
	}
}

// derivedExpr reports whether e evaluates to a context derived from the
// tracked set: a derived identifier, or a call any of whose arguments is
// derived (context.WithTimeout, custom wrappers).
func derivedExpr(pass *analysis.Pass, e ast.Expr, set analysis.ObjSet) bool {
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		return set.Has(pass.ObjectOf(e))
	case *ast.CallExpr:
		for _, arg := range e.Args {
			if derivedExpr(pass, arg, set) {
				return true
			}
		}
	}
	return false
}

// checkCallArgs flags context-typed arguments that do not derive from the
// function's own context.
func checkCallArgs(pass *analysis.Pass, call *ast.CallExpr, set analysis.ObjSet) {
	for _, arg := range call.Args {
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || !isContext(tv.Type) {
			continue
		}
		if derivedExpr(pass, arg, set) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"context-capable call does not receive this function's context: thread ctx instead of minting or caching one")
	}
}
