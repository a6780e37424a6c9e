// Package spanend enforces the observability layer's span-closure
// discipline: every obs span opened with Start must be closed with End in
// the same block, either directly or via defer (DESIGN.md §10). An
// unclosed span reports a zero duration until Tracer.Finish sweeps it,
// which silently mis-attributes time in run manifests — exactly the
// failure mode the tolerance-aware golden differ cannot catch because the
// span tree shape still matches.
//
// The check is syntactic and local, mirroring how the codebase actually
// uses spans:
//
//	sp := tracer.Phase("exec").Start(key)
//	defer sp.End()           // or sp.End() later in the same block
//
// Recognized closings: `defer sp.End()`, a plain `sp.End()` statement in
// the same block after the Start, or an End inside a deferred closure in
// that block. A Start whose result is discarded is always an error. Spans
// stored into fields or returned are out of scope for the heuristic;
// suppress with //lint:ignore spanend <reason> if such a helper is ever
// needed.
package spanend

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the spanend pass.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "requires every obs span Start to be paired with End (defer or same block)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		checkBlock(pass, block)
		return true
	})
	return nil
}

// checkBlock scans one statement list for span-opening statements and
// verifies each has a closing End later in the same list.
func checkBlock(pass *analysis.Pass, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isSpanStart(pass, call) {
				pass.Reportf(call.Pos(), "result of Start discarded: span can never be ended")
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
				continue
			}
			call, ok := analysis.Unparen(s.Rhs[0]).(*ast.CallExpr)
			if !ok || !isSpanStart(pass, call) {
				continue
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				pass.Reportf(s.Pos(), "span assigned to blank identifier: span can never be ended")
				continue
			}
			obj := pass.ObjectOf(id)
			if obj == nil {
				continue
			}
			if !endedInBlock(pass, block.List[i+1:], obj) {
				pass.Reportf(s.Pos(),
					"span %q is started but not ended in this block: add `defer %s.End()` (or call %s.End() before leaving the block)",
					id.Name, id.Name, id.Name)
			}
		}
	}
}

// isSpanStart recognizes calls to (*obs.Span).Start, whose handle's End
// must run in the same block for the span to carry a real duration.
func isSpanStart(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Start" {
		return false
	}
	f, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return analysis.IsNamed(sig.Recv().Type(), "internal/obs", "Span")
}

// endedInBlock reports whether any of the statements closes obj's span:
// `defer obj.End()`, `obj.End()`, or an End on obj anywhere inside a
// deferred function literal.
func endedInBlock(pass *analysis.Pass, stmts []ast.Stmt, obj types.Object) bool {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			if isEndCall(pass, s.Call, obj) {
				return true
			}
			if lit, ok := analysis.Unparen(s.Call.Fun).(*ast.FuncLit); ok && containsEnd(pass, lit, obj) {
				return true
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isEndCall(pass, call, obj) {
				return true
			}
		}
	}
	return false
}

// isEndCall reports whether call is obj.End().
func isEndCall(pass *analysis.Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := analysis.Unparen(sel.X).(*ast.Ident)
	return ok && pass.ObjectOf(id) == obj
}

// containsEnd reports whether the function literal's body ends obj's span.
func containsEnd(pass *analysis.Pass, lit *ast.FuncLit, obj types.Object) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isEndCall(pass, call, obj) {
			found = true
			return false
		}
		return !found
	})
	return found
}
