package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds the per-function control-flow graph the solver in
// flow.go runs on. Blocks hold straight-line runs of
// statements (and the condition expressions evaluated at their ends);
// edges carry the branch condition and the value it takes along the
// edge, which is where guard facts like `a >= b` are born.
//
// The builder covers every statement form the module uses. Two
// deliberate simplifications are safe for a must-analysis consumer but
// worth knowing about:
//
//   - goto is treated as a function exit (no edge). The module has no
//     gotos; if one appears, the target block keeps only the facts from
//     its other predecessors, which can over- or under-approximate.
//   - A range statement's body is nested inside the RangeStmt node that
//     heads the loop, so node consumers must not blindly descend into
//     it (see walkNode in dataflow.go).

// cfgEdge is one control transfer. When cond is non-nil the edge is
// taken exactly when cond evaluates to branch.
type cfgEdge struct {
	to     *cfgBlock
	cond   ast.Expr
	branch bool
}

// cfgBlock is a straight-line run of statements and condition
// expressions, evaluated in order, ending in zero or more successor
// edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []cfgEdge
}

type cfgGraph struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

// ctrlTarget resolves break/continue statements: one frame per
// enclosing for/range (cont non-nil) or switch/select (cont nil).
type ctrlTarget struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock
}

type cfgBuilder struct {
	g            *cfgGraph
	targets      []ctrlTarget
	fallthroughT *cfgBlock // next case body, inside a switch clause
	pendingLabel string
}

// buildCFG constructs the control-flow graph of one function body.
func buildCFG(body *ast.BlockStmt) *cfgGraph {
	b := &cfgBuilder{g: &cfgGraph{}}
	b.g.entry = b.newBlock()
	b.stmts(b.g.entry, body.List)
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func addEdge(from, to *cfgBlock, cond ast.Expr, branch bool) {
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, branch: branch})
}

// stmts threads cur through a statement list. A nil cur means control
// cannot reach this point; a fresh predecessor-less block keeps the
// walk total (the dataflow pass never visits it).
func (b *cfgBuilder) stmts(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt extends the graph with one statement and returns the block where
// control continues, or nil if it cannot.
func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt) *cfgBlock {
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(cur, s.List)

	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		return b.stmt(cur, s.Stmt)

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		after := b.newBlock()
		thenB := b.newBlock()
		addEdge(cur, thenB, s.Cond, true)
		if end := b.stmts(thenB, s.Body.List); end != nil {
			addEdge(end, after, nil, false)
		}
		if s.Else != nil {
			elseB := b.newBlock()
			addEdge(cur, elseB, s.Cond, false)
			if end := b.stmt(elseB, s.Else); end != nil {
				addEdge(end, after, nil, false)
			}
		} else {
			addEdge(cur, after, s.Cond, false)
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.newBlock()
		addEdge(cur, head, nil, false)
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
			addEdge(head, body, s.Cond, true)
			addEdge(head, after, s.Cond, false)
		} else {
			addEdge(head, body, nil, false)
		}
		latch := b.newBlock()
		if s.Post != nil {
			latch.nodes = append(latch.nodes, s.Post)
		}
		addEdge(latch, head, nil, false)
		b.targets = append(b.targets, ctrlTarget{label: label, brk: after, cont: latch})
		bodyEnd := b.stmts(body, s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if bodyEnd != nil {
			addEdge(bodyEnd, latch, nil, false)
		}
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		addEdge(cur, head, nil, false)
		// The whole RangeStmt heads the loop: its X is evaluated and its
		// Key/Value are reassigned each iteration (killing facts).
		head.nodes = append(head.nodes, s)
		body := b.newBlock()
		after := b.newBlock()
		addEdge(head, body, nil, false)
		addEdge(head, after, nil, false)
		b.targets = append(b.targets, ctrlTarget{label: label, brk: after, cont: head})
		bodyEnd := b.stmts(body, s.Body.List)
		b.targets = b.targets[:len(b.targets)-1]
		if bodyEnd != nil {
			addEdge(bodyEnd, head, nil, false)
		}
		return after

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		after := b.newBlock()
		b.targets = append(b.targets, ctrlTarget{label: label, brk: after})
		clauses := make([]*ast.CaseClause, len(s.Body.List))
		bodies := make([]*cfgBlock, len(s.Body.List))
		for i, cs := range s.Body.List {
			clauses[i] = cs.(*ast.CaseClause)
			bodies[i] = b.newBlock()
		}
		// In a tagless switch each single-expression case is a branch
		// condition: its body sees the condition true, and later cases
		// (and default) see it false — exactly an if/else-if chain.
		test := cur
		defaultIdx := -1
		for i, cc := range clauses {
			if cc.List == nil {
				defaultIdx = i
				continue
			}
			for _, e := range cc.List {
				test.nodes = append(test.nodes, e)
			}
			if s.Tag == nil && len(cc.List) == 1 {
				addEdge(test, bodies[i], cc.List[0], true)
				next := b.newBlock()
				addEdge(test, next, cc.List[0], false)
				test = next
			} else {
				addEdge(test, bodies[i], nil, false)
			}
		}
		if defaultIdx >= 0 {
			addEdge(test, bodies[defaultIdx], nil, false)
		} else {
			addEdge(test, after, nil, false)
		}
		for i, cc := range clauses {
			saved := b.fallthroughT
			if i+1 < len(bodies) {
				b.fallthroughT = bodies[i+1]
			} else {
				b.fallthroughT = nil
			}
			end := b.stmts(bodies[i], cc.Body)
			b.fallthroughT = saved
			if end != nil {
				addEdge(end, after, nil, false)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		return after

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		after := b.newBlock()
		b.targets = append(b.targets, ctrlTarget{label: label, brk: after})
		hasDefault := false
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			body := b.newBlock()
			addEdge(cur, body, nil, false)
			if end := b.stmts(body, cc.Body); end != nil {
				addEdge(end, after, nil, false)
			}
		}
		if !hasDefault {
			addEdge(cur, after, nil, false)
		}
		b.targets = b.targets[:len(b.targets)-1]
		return after

	case *ast.SelectStmt:
		after := b.newBlock()
		b.targets = append(b.targets, ctrlTarget{label: label, brk: after})
		for _, cs := range s.Body.List {
			cc := cs.(*ast.CommClause)
			body := b.newBlock()
			if cc.Comm != nil {
				body.nodes = append(body.nodes, cc.Comm)
			}
			addEdge(cur, body, nil, false)
			if end := b.stmts(body, cc.Body); end != nil {
				addEdge(end, after, nil, false)
			}
		}
		b.targets = b.targets[:len(b.targets)-1]
		return after

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(s.Label, false); t != nil {
				addEdge(cur, t, nil, false)
			}
		case token.CONTINUE:
			if t := b.findTarget(s.Label, true); t != nil {
				addEdge(cur, t, nil, false)
			}
		case token.FALLTHROUGH:
			if b.fallthroughT != nil {
				addEdge(cur, b.fallthroughT, nil, false)
			}
		}
		// goto: treated as an exit (see the file comment).
		return nil

	default:
		// Assignments, declarations, inc/dec, expression statements,
		// defer, go, send, empty: straight-line nodes.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// findTarget resolves a break (wantCont false) or continue (true) to
// its destination block, honouring an optional label.
func (b *cfgBuilder) findTarget(label *ast.Ident, wantCont bool) *cfgBlock {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != nil && t.label != label.Name {
			continue
		}
		if wantCont {
			if t.cont != nil {
				return t.cont
			}
			continue
		}
		return t.brk
	}
	return nil
}
