// Package lockcopy enforces the singleflight-cache aliasing rule: results
// obtained from par.Cache.Get are shared. Every concurrent caller for a
// key observes the same pointer (DESIGN.md §9), so mutating through that
// pointer ("re-wrapping" a cached value) is a data race and corrupts the
// cache for every later reader. Writes through a variable bound directly
// to a Cache.Get result are flagged.
//
// Copies of lock-bearing values, par.Cache included (it holds a
// sync.Mutex by value), are go vet's copylocks check, which `make vet`
// runs.
package lockcopy

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockcopy pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcopy",
	Doc:  "flags mutation of par.Cache.Get results",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok {
			checkCacheAliasing(pass, fd.Body)
		}
		return true
	})
	return nil
}

// checkCacheAliasing flags writes through variables bound to par.Cache.Get
// results within one function body.
func checkCacheAliasing(pass *analysis.Pass, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	// Pass 1: variables directly bound to a Cache.Get result.
	cached := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := analysis.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isCacheGet(pass, call) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				cached[obj] = true
			}
		}
		return true
	})
	if len(cached) == 0 {
		return
	}
	// Pass 2: writes through those variables (v.Field = …, v[i] = …, *v = …).
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if _, isIdent := analysis.Unparen(lhs).(*ast.Ident); isIdent {
				continue // rebinding the variable itself is fine
			}
			root := analysis.RootIdent(lhs)
			if root == nil {
				continue
			}
			if obj := pass.ObjectOf(root); obj != nil && cached[obj] {
				pass.Reportf(lhs.Pos(),
					"mutation of %q, a value shared via par.Cache.Get: cached results are observed by every caller; copy before modifying",
					root.Name)
			}
		}
		return true
	})
}

// isCacheGet recognizes calls to (*par.Cache[K, V]).Get.
func isCacheGet(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" {
		return false
	}
	recv := pass.TypesInfo.Types[sel.X].Type
	if recv == nil {
		return false
	}
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Cache" && obj.Pkg() != nil &&
		analysis.PathHasSuffix(obj.Pkg().Path(), "internal/par")
}
