// Package hotalloc forbids heap allocations inside designated hot paths.
// The PR-4 engine rewrite made simulator stepping, the radix sorts and the
// model estimator allocation-free (DESIGN.md §12), pinned at runtime by
// TestEngineStepAllocs; this pass holds the same line at compile time, and
// over the whole designated surface rather than the one code path the
// test happens to drive.
//
// Hot code is opt-in twice over: the enclosing package must be on the
// allowlist below, and the function must carry a `//hot:path` line in its
// doc comment. Inside a hot function the pass flags
//
//   - any call into package fmt (formatting allocates);
//   - map and slice composite literals (array and struct literals are
//     stack-friendly and stay silent);
//   - interface boxing: a concrete non-pointer-shaped value (int, float,
//     struct, string, slice) converted, assigned, passed or returned as an
//     interface value — the runtime must heap-box it;
//   - escaping function literals: returned, stored into a field, global,
//     element or channel, or launched via go/defer. A literal passed
//     directly as a call argument (the slices.SortFunc shape) does not
//     escape and stays silent;
//   - growing appends: `append(s, …)` where s is not scratch-backed. The
//     CFG dataflow (internal/analysis cfg.go/dataflow.go) tracks which
//     slice variables are backed by preallocated storage — a reslice like
//     `s[:0]` or `aux[:len(s)]`, a fresh `make`, a copy of a backed
//     variable, or an append to a backed base — so the engine's
//     `keep := e.active[:0]; keep = append(keep, wi)` compaction idiom
//     passes while a bare accumulating append is flagged. The analysis is
//     flow-sensitive: rebinding s to unknown storage kills the fact on
//     the paths below the rebinding. `make` itself is allowed — sizing a
//     scratch buffer is how hot code avoids growth.
//
// A `//hot:path` annotation outside the allowlist, or on anything other
// than a function declaration, is itself a finding: the contract is only
// auditable where the pass is looking.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// allowed lists the package path suffixes that may declare hot paths:
// the simulator engine, the sparse/tile sort layers, the estimator, the
// panel-parallel functional kernels, the semiring row kernels they call,
// and the MatrixMarket entry walk.
var allowed = []string{"internal/sim", "internal/sparse", "internal/tile", "internal/model", "internal/dense", "internal/semiring", "internal/mm"}

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbids heap allocations (growing append, map/slice literals, interface boxing, " +
		"escaping closures, fmt calls) in //hot:path functions of the sim/sparse/tile/model/dense/semiring/mm packages",
	Run: run,
}

func run(pass *analysis.Pass) error {
	inScope := analysis.PathHasAnySuffix(pass.Pkg.Path(), allowed)
	for _, file := range pass.Files {
		hotDocs := map[*ast.CommentGroup]bool{}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			hotDocs[fd.Doc] = true
			if !isHot(fd.Doc) {
				continue
			}
			if !inScope {
				pass.Reportf(fd.Pos(),
					"//hot:path annotation outside the hot-path allowlist (%s): hotalloc does not police %s",
					strings.Join(allowed, ", "), pass.Pkg.Path())
				continue
			}
			if fd.Body != nil {
				checkHotFunc(pass, fd)
			}
		}
		// A //hot:path line anywhere else (floating comment, non-func decl)
		// silently polices nothing — make that loud.
		for _, cg := range file.Comments {
			if hotDocs[cg] {
				continue
			}
			for _, c := range cg.List {
				if isHotLine(c.Text) {
					pass.Reportf(c.Pos(), "//hot:path must be in a function declaration's doc comment")
				}
			}
		}
	}
	return nil
}

// isHot reports whether a doc comment carries a //hot:path line.
func isHot(doc *ast.CommentGroup) bool {
	for _, c := range doc.List {
		if isHotLine(c.Text) {
			return true
		}
	}
	return false
}

func isHotLine(text string) bool {
	return text == "//hot:path" || strings.HasPrefix(text, "//hot:path ")
}

// checkHotFunc applies every allocation check to one hot function body.
func checkHotFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	checkSyntactic(pass, fd)
	checkAppends(pass, fd.Body)
	// Function literals get their own flow analysis: their bodies are not
	// part of the enclosing CFG.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkAppends(pass, lit.Body)
		}
		return true
	})
}

// checkSyntactic walks the whole hot body (function literals included) for
// the flow-insensitive allocation shapes.
func checkSyntactic(pass *analysis.Pass, fd *ast.FuncDecl) {
	parents := buildParents(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.CompositeLit:
			checkCompositeLit(pass, n)
		case *ast.AssignStmt:
			checkBoxingAssign(pass, n)
		case *ast.ValueSpec:
			checkBoxingValueSpec(pass, n)
		case *ast.ReturnStmt:
			checkBoxingReturn(pass, fd, n)
		case *ast.FuncLit:
			checkClosure(pass, parents, n)
		}
		return true
	})
}

// checkCompositeLit flags map and slice literals; arrays and structs are
// stack-friendly and stay silent.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal in hot path: allocates")
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal in hot path: allocates")
	}
}

// checkCall flags fmt calls and interface-boxing arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if f := pass.CalleeFunc(call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in hot path: formatting allocates", f.Name())
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion T(x): boxing when T is an interface.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			checkBoxed(pass, call.Args[0], "conversion to "+tv.Type.String())
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if ok {
		checkBoxingArgs(pass, call, sig)
	}
}

// checkBoxingArgs flags concrete values passed to interface parameters.
func checkBoxingArgs(pass *analysis.Pass, call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	// f(g()) with a multi-value g: nothing to match syntactically.
	if len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok {
			if tuple, ok := tv.Type.(*types.Tuple); ok && tuple.Len() > 1 {
				return
			}
		}
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no per-element box
			}
			pt = params.At(params.Len() - 1).Type()
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			checkBoxed(pass, arg, "interface argument")
		}
	}
}

// checkBoxingAssign flags concrete RHS values assigned to interface LHS.
func checkBoxingAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pass.TypesInfo.Types[lhs].Type
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		checkBoxed(pass, as.Rhs[i], "assignment to interface")
	}
}

// checkBoxingValueSpec flags `var x I = concrete`.
func checkBoxingValueSpec(pass *analysis.Pass, vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		obj := pass.TypesInfo.Defs[name]
		if obj == nil || !types.IsInterface(obj.Type()) {
			continue
		}
		checkBoxed(pass, vs.Values[i], "assignment to interface")
	}
}

// checkBoxingReturn flags concrete values returned as interface results.
func checkBoxingReturn(pass *analysis.Pass, fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	results := obj.Type().(*types.Signature).Results()
	if len(ret.Results) != results.Len() {
		return // naked return or multi-value passthrough
	}
	for i, r := range ret.Results {
		if types.IsInterface(results.At(i).Type()) {
			checkBoxed(pass, r, "interface return")
		}
	}
}

// checkBoxed reports expr when converting it to an interface heap-boxes:
// its concrete type is not pointer-shaped (pointer, chan, map, func,
// unsafe.Pointer) and it is not nil or already an interface.
func checkBoxed(pass *analysis.Pass, expr ast.Expr, what string) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return
		}
	}
	pass.Reportf(expr.Pos(), "%s boxes %s in hot path: interface conversion allocates", what, t)
}

// checkClosure flags function literals in escaping positions.
func checkClosure(pass *analysis.Pass, parents map[ast.Node]ast.Node, lit *ast.FuncLit) {
	switch p := parentSkipParens(parents, lit).(type) {
	case *ast.CallExpr:
		if analysis.Unparen(p.Fun) == lit {
			// Immediately-invoked literal: allocation-free unless the call
			// itself is deferred or spawned.
			switch parentSkipParens(parents, p).(type) {
			case *ast.GoStmt, *ast.DeferStmt:
				pass.Reportf(lit.Pos(), "closure in go/defer escapes hot path: allocates")
			}
			return
		}
		// Direct call argument (the slices.SortFunc shape): stays on the
		// stack for the duration of the call.
	case *ast.ReturnStmt:
		pass.Reportf(lit.Pos(), "closure returned from hot path: allocates")
	case *ast.AssignStmt:
		// A plain local variable keeps the closure stack-allocatable; any
		// other lvalue stores it into longer-lived memory.
		for i, rhs := range p.Rhs {
			if analysis.Unparen(rhs) != lit || i >= len(p.Lhs) {
				continue
			}
			if _, ok := analysis.Unparen(p.Lhs[i]).(*ast.Ident); !ok {
				pass.Reportf(lit.Pos(), "closure stored outside the stack frame: allocates")
			}
		}
	case *ast.CompositeLit, *ast.SendStmt, *ast.KeyValueExpr:
		pass.Reportf(lit.Pos(), "closure stored outside the stack frame: allocates")
	}
}

// buildParents maps every node under root to its syntactic parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

func parentSkipParens(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	p := parents[n]
	for {
		if _, ok := p.(*ast.ParenExpr); !ok {
			return p
		}
		p = parents[p]
	}
}

// checkAppends runs the scratch-backed dataflow over one function (or
// literal) body and flags growing appends.
func checkAppends(pass *analysis.Pass, body *ast.BlockStmt) {
	g := analysis.NewCFG(body)

	transfer := func(n ast.Node, set analysis.ObjSet) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			transferAssign(pass, n, set)
		case *ast.RangeStmt:
			// Loop variables are rebound each iteration to unknown storage.
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok && id != nil {
					if obj := pass.ObjectOf(id); obj != nil {
						delete(set, obj)
					}
				}
			}
		}
	}

	visit := func(n ast.Node, in analysis.ObjSet) {
		// Find append calls anywhere in this node, but not inside nested
		// function literals (they have their own CFG pass).
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) {
				return true
			}
			base := analysis.Unparen(call.Args[0])
			id, ok := base.(*ast.Ident)
			if !ok {
				// append(x.f, …) or append(s[i:j], …): not a tracked local.
				pass.Reportf(call.Pos(), "growing append in hot path: base is not a scratch-backed local")
				return true
			}
			if !in.Has(pass.ObjectOf(id)) {
				pass.Reportf(call.Pos(),
					"growing append to %q in hot path: not scratch-backed (reslice with [:0] or size with make first)", id.Name)
			}
			return true
		})
	}

	analysis.SolveForward(g, analysis.ObjSet{}, transfer, visit)
}

// transferAssign applies the gen/kill rules for scratch-backing: a variable
// becomes backed when assigned a reslice, a make, a copy of a backed
// variable, or an append to a backed base; any other assignment kills it.
func transferAssign(pass *analysis.Pass, as *ast.AssignStmt, set analysis.ObjSet) {
	if len(as.Lhs) != len(as.Rhs) {
		// a, b := f(): kill every plain ident on the left.
		for _, lhs := range as.Lhs {
			if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					delete(set, obj)
				}
			}
		}
		return
	}
	// Evaluate gen/kill against the pre-assignment set so parallel swaps
	// (`from, to = to, from`) read the old facts.
	type update struct {
		obj    types.Object
		backed bool
	}
	var ups []update
	for i, lhs := range as.Lhs {
		id, ok := analysis.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue // field/index writes don't rebind a local
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			continue
		}
		ups = append(ups, update{obj, backedExpr(pass, as.Rhs[i], set)})
	}
	for _, u := range ups {
		if u.backed {
			set[u.obj] = true
		} else {
			delete(set, u.obj)
		}
	}
}

// backedExpr reports whether evaluating e yields a scratch-backed slice
// under the current facts.
func backedExpr(pass *analysis.Pass, e ast.Expr, set analysis.ObjSet) bool {
	switch e := analysis.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true // s[a:b] shares existing backing storage
	case *ast.Ident:
		return set.Has(pass.ObjectOf(e))
	case *ast.CallExpr:
		if id, ok := analysis.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
				switch b.Name() {
				case "make":
					return true // freshly sized: appends up to cap don't grow
				case "append":
					if base, ok := analysis.Unparen(e.Args[0]).(*ast.Ident); ok {
						return set.Has(pass.ObjectOf(base))
					}
				}
			}
		}
	}
	return false
}

// isBuiltinAppend recognizes calls to the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}
