package analysis

import (
	"go/ast"
	"go/token"
)

// CFGBlock is one straight-line run of statements in a function body. Nodes
// holds the statements (and loop/branch condition expressions) in execution
// order; Succs the blocks control may transfer to afterwards.
type CFGBlock struct {
	Nodes []ast.Node
	Succs []*CFGBlock

	// index is the block's position in CFG.Blocks, used by the dataflow
	// solver's worklist.
	index int
}

// CFG is a lightweight intraprocedural control-flow graph over one function
// body, built from syntax alone (DESIGN.md §16). It exists so a dataflow
// pass (ctxflow's derived-context tracking) can be flow-sensitive: a
// variable rebound mid-function carries its new provenance only on the
// paths below the rebinding.
//
// Approximations, all conservative for may-analyses: defer and go
// statements are ordinary nodes at their syntactic position; panics and
// runtime exits are invisible; goto ends its block without an edge (the
// target's other predecessors still feed it); function-literal bodies are
// not part of the enclosing graph — analyzers walk them separately.
type CFG struct {
	Entry  *CFGBlock
	Blocks []*CFGBlock
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cur = b.newBlock()
	b.cfg.Entry = b.cur
	b.stmts(body.List)
	return b.cfg
}

// cfgBuilder carries the under-construction graph and the jump targets the
// statement walk needs.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block receiving the next statement; nil after a
	// terminator (return, break, …) until new control flow begins.
	cur *CFGBlock
	// breaks and continues are the enclosing jump targets, innermost last.
	// Entries carry the loop/switch label ("" when unlabeled).
	breaks    []cfgTarget
	continues []cfgTarget
	// pendingLabel names the label attached to the next loop/switch.
	pendingLabel string
}

type cfgTarget struct {
	label string
	block *CFGBlock
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// link adds the edge from → to (from may be nil after a terminator).
func (b *cfgBuilder) link(from, to *CFGBlock) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, opening an unreachable block for
// syntactically dead statements so the walk never dereferences nil.
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock() // dead code: block with no predecessors
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// target resolves a break/continue to its block, matching the label when
// one is given.
func target(stack []cfgTarget, label string) *CFGBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.cur = nil

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			b.link(b.cur, target(b.breaks, labelName(s)))
		case token.CONTINUE:
			b.link(b.cur, target(b.continues, labelName(s)))
		case token.FALLTHROUGH:
			// Handled by the switch builder (clause bodies are linked to
			// the next clause when they end in fallthrough); nothing here.
			return
		case token.GOTO:
			// Approximation: no edge. The target block keeps its other
			// predecessors, so a may-analysis only under-approximates the
			// paths through the goto itself.
		}
		b.cur = nil

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmts(s.Body.List)
		endThen := b.cur
		join := b.newBlock()
		b.link(endThen, join)
		if s.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.link(b.cur, join)
		} else {
			b.link(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.link(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		head = b.cur // cond expr stays in the head block
		after := b.newBlock()
		if s.Cond != nil {
			b.link(head, after)
		}
		body := b.newBlock()
		b.link(head, body)
		// Continue goes through the post statement when there is one.
		contTo := head
		var post *CFGBlock
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.link(post, head)
			contTo = post
		}
		b.breaks = append(b.breaks, cfgTarget{label, after})
		b.continues = append(b.continues, cfgTarget{label, contTo})
		b.cur = body
		b.stmts(s.Body.List)
		b.link(b.cur, contTo)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		head := b.newBlock()
		b.link(b.cur, head)
		// The RangeStmt node itself represents the per-iteration key/value
		// binding; transfer functions see it once per loop head.
		head.Nodes = append(head.Nodes, s)
		after := b.newBlock()
		b.link(head, after)
		body := b.newBlock()
		b.link(head, body)
		b.breaks = append(b.breaks, cfgTarget{label, after})
		b.continues = append(b.continues, cfgTarget{label, head})
		b.cur = body
		b.stmts(s.Body.List)
		b.link(b.cur, head)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.cur = after

	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, s.Body)

	case *ast.TypeSwitchStmt:
		b.switchLike(s.Init, nil, s.Body)
		// The per-clause binding of `switch v := x.(type)` is part of the
		// dispatch; record the Assign so transfers see the definition.
		// (Appended after switchLike has restored b.cur to the join; the
		// conservative placement keeps v visible below the switch.)
		if s.Assign != nil {
			b.add(s.Assign)
		}

	case *ast.SelectStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		dispatch := b.cur
		if dispatch == nil {
			dispatch = b.newBlock()
			b.cur = dispatch
		}
		after := b.newBlock()
		b.breaks = append(b.breaks, cfgTarget{label, after})
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			b.link(dispatch, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmts(comm.Body)
			b.link(b.cur, after)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = after

	default:
		// DeclStmt, AssignStmt, ExprStmt, SendStmt, IncDecStmt, DeferStmt,
		// GoStmt, EmptyStmt: straight-line nodes.
		b.add(s)
	}
}

// switchLike builds switch and type-switch graphs: dispatch block feeding
// every clause, clauses joining below, fallthrough linking to the next
// clause body.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	if init != nil {
		b.add(init)
	}
	if tag != nil {
		b.add(tag)
	}
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock()
	}
	after := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label, after})
	clauses := make([]*CFGBlock, 0, len(body.List))
	hasDefault := false
	for range body.List {
		clauses = append(clauses, b.newBlock())
	}
	for i, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.link(dispatch, clauses[i])
		b.cur = clauses[i]
		b.stmts(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.link(b.cur, clauses[i+1])
			b.cur = nil
			continue
		}
		b.link(b.cur, after)
	}
	if !hasDefault {
		b.link(dispatch, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// fallsThrough reports whether a case body ends in a fallthrough statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func labelName(s *ast.BranchStmt) string {
	if s.Label == nil {
		return ""
	}
	return s.Label.Name
}
