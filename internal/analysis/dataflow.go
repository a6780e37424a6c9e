package analysis

import (
	"go/ast"
	"go/types"
)

// ObjSet is a set of typed objects — the lattice element of the forward
// may-analyses built on the CFG (ctxflow's derived contexts).
type ObjSet map[types.Object]bool

// Has reports membership (nil-safe).
func (s ObjSet) Has(o types.Object) bool { return s != nil && s[o] }

// clone copies the set.
func (s ObjSet) Clone() ObjSet {
	out := make(ObjSet, len(s))
	for o := range s {
		out[o] = true
	}
	return out
}

// equal reports set equality.
func (s ObjSet) equal(t ObjSet) bool {
	if len(s) != len(t) {
		return false
	}
	for o := range s {
		if !t[o] {
			return false
		}
	}
	return true
}

// union adds t's members to s, reporting whether s changed.
func (s ObjSet) Union(t ObjSet) bool {
	changed := false
	for o := range t {
		if !s[o] {
			s[o] = true
			changed = true
		}
	}
	return changed
}

// Transfer updates the in-flight set for one CFG node, in block order. It
// must be monotone in the set (adding members to the input may only add
// members to the output) for the fixpoint to exist.
type Transfer func(n ast.Node, set ObjSet)

// SolveForward runs a forward may-dataflow analysis over the CFG to a
// fixpoint: block inputs are the union of predecessor outputs (seed at
// entry), transfer is applied to each node in turn. After convergence,
// visit is called once per node with the set in effect at that node — the
// analyzer's chance to report against stable facts.
func SolveForward(g *CFG, seed ObjSet, transfer Transfer, visit func(n ast.Node, in ObjSet)) {
	n := len(g.Blocks)
	in := make([]ObjSet, n)
	out := make([]ObjSet, n)
	for i := range in {
		in[i] = ObjSet{}
		out[i] = ObjSet{}
	}
	in[g.Entry.index].Union(seed)

	// preds, derived once: the builder only records successors.
	preds := make([][]*CFGBlock, n)
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.index] = append(preds[s.index], b)
		}
	}

	work := make([]*CFGBlock, 0, n)
	queued := make([]bool, n)
	push := func(b *CFGBlock) {
		if !queued[b.index] {
			queued[b.index] = true
			work = append(work, b)
		}
	}
	for _, b := range g.Blocks {
		push(b) // include pred-less blocks so dead code is still visited
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.index] = false

		cur := in[b.index]
		for _, p := range preds[b.index] {
			cur.Union(out[p.index])
		}
		cur = cur.Clone()
		for _, node := range b.Nodes {
			transfer(node, cur)
		}
		if !cur.equal(out[b.index]) {
			out[b.index] = cur
			for _, s := range b.Succs {
				push(s)
			}
		}
	}

	if visit == nil {
		return
	}
	for _, b := range g.Blocks {
		cur := in[b.index].Clone()
		for _, node := range b.Nodes {
			visit(node, cur)
			transfer(node, cur)
		}
	}
}
