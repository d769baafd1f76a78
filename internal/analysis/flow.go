package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the one forward dataflow solver every flow-sensitive
// rule runs on: the worklist over the CFG of cfg.go, the reached set,
// the decomposition of branch conditions into the comparisons that hold
// along an edge, and the check-then-transfer replay that emits
// diagnostics at the fixpoint. A rule brings only its lattice, as a
// flow value: counter safety's guard facts (dataflow.go).

// flow is one rule's abstract domain over states of type S. States are
// mutable (maps, or pointers to structs): transfer and leaf update
// their argument in place, and the solver clones before it does either
// to a state it still needs.
type flow[S any] struct {
	clone func(S) S
	// join merges in, arriving along one more edge, into cur, the state
	// recorded at a block's entry. changed reports that the block must
	// run again from the result. A domain that only grows may update cur
	// in place and return it.
	join func(cur, in S) (next S, changed bool)
	// transfer advances s across one CFG node.
	transfer func(n ast.Node, s S)
	// leaf refines s by one operand of a branch condition:
	// cond is never a parenthesis, a negation, && or ||, and evaluates to
	// holds on the edge being followed.
	leaf func(cond ast.Expr, holds bool, s S)
}

// splitCond calls leaf once for every operand of cond whose value is
// known when cond evaluates to holds: both sides of a true && and of a
// false ||, through parentheses, with ! flipping the sense. A false &&
// and a true || say nothing about either side and yield nothing.
func splitCond(cond ast.Expr, holds bool, leaf func(cond ast.Expr, holds bool)) {
	cond = unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			splitCond(c.X, !holds, leaf)
			return
		}
	case *ast.BinaryExpr:
		if c.Op == token.LAND || c.Op == token.LOR {
			if holds == (c.Op == token.LAND) {
				splitCond(c.X, holds, leaf)
				splitCond(c.Y, holds, leaf)
			}
			return
		}
	}
	leaf(cond, holds)
}

// along refines s in place by the condition edge e carries, if any.
func (f flow[S]) along(e cfgEdge, s S) {
	if e.cond != nil {
		splitCond(e.cond, e.branch, func(c ast.Expr, holds bool) { f.leaf(c, holds, s) })
	}
}

// solved is a fixpoint: the state on entry to every block control can
// reach from the function's entry.
type solved[S any] struct {
	f       flow[S]
	g       *cfgGraph
	in      []S
	reached []bool
}

// solve runs f to a fixpoint over g from the given entry state. It
// terminates on a finite lattice with a monotone join.
func solve[S any](g *cfgGraph, entry S, f flow[S]) *solved[S] {
	sv := &solved[S]{f: f, g: g, in: make([]S, len(g.blocks)), reached: make([]bool, len(g.blocks))}
	sv.in[g.entry.index], sv.reached[g.entry.index] = entry, true
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := sv.out(blk)
		for _, e := range blk.succs {
			ef := out
			if e.cond != nil {
				ef = f.clone(out)
				f.along(e, ef)
			}
			to := e.to.index
			if !sv.reached[to] {
				sv.in[to], sv.reached[to] = f.clone(ef), true
				work = append(work, e.to)
				continue
			}
			if next, changed := f.join(sv.in[to], ef); changed {
				sv.in[to] = next
				work = append(work, e.to)
			}
		}
	}
	return sv
}

// out returns a fresh copy of the state at the end of a reached block.
func (sv *solved[S]) out(blk *cfgBlock) S {
	s := sv.f.clone(sv.in[blk.index])
	for _, n := range blk.nodes {
		sv.f.transfer(n, s)
	}
	return s
}

// replay walks every reached block once, in block order, calling check
// on each node with the state in force just before the node executes.
// Rules report from check, never from transfer, so a diagnostic is
// emitted once however many times the fixpoint revisited its block.
func (sv *solved[S]) replay(check func(n ast.Node, s S)) {
	for _, blk := range sv.g.blocks {
		if !sv.reached[blk.index] {
			continue
		}
		s := sv.f.clone(sv.in[blk.index])
		for _, n := range blk.nodes {
			check(n, s)
			sv.f.transfer(n, s)
		}
	}
}
