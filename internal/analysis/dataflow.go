package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
)

// This file is the guard-fact domain of the solver in flow.go, plus the
// kill model every identifier-keyed domain shares. The facts are order
// guards — "a >= b holds here" — harvested from branch-condition edges
// and intersected at joins, so a fact survives only when it holds on
// every path into a block. countersafety.go asks the resulting fact
// sets whether an unsigned subtraction is dominated by a guard proving
// it cannot wrap.
//
// Known approximations, all in the noisy-but-safe direction except the
// last two:
//
//   - Kills are by identifier: assigning to any identifier mentioned in
//     a fact (including selector roots, so `s.base = x` kills every
//     fact about `s`) drops the fact. Coarse, but only ever loses
//     information.
//   - Taking a variable's address anywhere in a statement kills facts
//     mentioning it, since the callee may mutate it.
//   - Facts may mention call results (e.g. `o.total() >= gap`); an
//     impure callee could return a different value at the use site.
//   - A method call on a pointer receiver may mutate the receiver
//     without the receiver's facts being killed.

// guardFact records that a >= b must hold (a > b when strict). Sides
// are canonical source renderings from types.ExprString; bVal carries
// b's constant value when it has one, enabling `x > 0` to justify
// `x - 1`.
type guardFact struct {
	a, b   string
	strict bool
	bVal   constant.Value
	idents map[string]bool // identifiers mentioned by either side
}

func (f guardFact) key() string {
	k := f.a + "\x00" + f.b
	if f.strict {
		k += "\x00>"
	}
	return k
}

// factSet is a must-hold set of guard facts keyed by guardFact.key.
type factSet map[string]guardFact

func intersectFacts(a, b factSet) factSet {
	out := factSet{}
	for k, f := range a {
		if _, ok := b[k]; ok {
			out[k] = f
		}
	}
	return out
}

// addFact inserts a >= b (strict: a > b, which also implies the
// non-strict fact, inserted as its own entry so plain key intersection
// keeps the weaker fact when paths disagree on strictness).
func addFact(info *types.Info, fs factSet, a, b ast.Expr, strict bool) {
	f := guardFact{
		a:      types.ExprString(a),
		b:      types.ExprString(b),
		strict: strict,
		idents: map[string]bool{},
	}
	if tv, ok := info.Types[b]; ok && tv.Value != nil {
		f.bVal = constant.ToInt(tv.Value)
	}
	collectIdents(a, f.idents)
	collectIdents(b, f.idents)
	fs[f.key()] = f
	if strict {
		weak := f
		weak.strict = false
		fs[weak.key()] = weak
	}
}

// addNonzeroFacts handles the edge where `x != y` is known true (spelled
// either as a taken != branch or a refuted == one). Over an unsigned
// domain, x != 0 is exactly x > 0 — the fact that lets checkSub's
// constant reasoning accept `x - 1`, which is what the bitmask-iteration
// idiom `for m != 0 { ...; m &= m - 1 }` relies on. Both orientations of
// the literal are recognized; signed operands get nothing (x != 0 says
// nothing about sign there).
func addNonzeroFacts(info *types.Info, fs factSet, x, y ast.Expr) {
	if isConstZero(info, y) && isUnsignedExpr(info, x) {
		addFact(info, fs, x, y, true)
	}
	if isConstZero(info, x) && isUnsignedExpr(info, y) {
		addFact(info, fs, y, x, true)
	}
}

// isConstZero reports whether e is the integer constant zero.
func isConstZero(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToInt(tv.Value)
	return v.Kind() == constant.Int && constant.Sign(v) == 0
}

// isUnsignedExpr reports whether e is a non-constant expression of
// unsigned integer type (named unsigned types included).
func isUnsignedExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil || tv.Value != nil {
		return false
	}
	return isUnsignedInt(tv.Type)
}

func collectIdents(e ast.Expr, into map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			into[id.Name] = true
		}
		return true
	})
}

// guardLeaf records the guard facts one comparison establishes on the
// edge where it evaluates to holds: a refuted comparison is its negation
// taken, and every ordering normalizes to >= / >.
func guardLeaf(info *types.Info, cond ast.Expr, holds bool, fs factSet) {
	c, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	op := c.Op
	if !holds {
		op = negateCmp(op)
	}
	switch op {
	case token.GEQ:
		addFact(info, fs, c.X, c.Y, false)
	case token.GTR:
		addFact(info, fs, c.X, c.Y, true)
	case token.LEQ: // x <= y ⇒ y >= x
		addFact(info, fs, c.Y, c.X, false)
	case token.LSS: // x < y ⇒ y > x
		addFact(info, fs, c.Y, c.X, true)
	case token.EQL:
		addFact(info, fs, c.X, c.Y, false)
		addFact(info, fs, c.Y, c.X, false)
	case token.NEQ:
		addNonzeroFacts(info, fs, c.X, c.Y)
	}
}

// killedNames is the kill model: the identifiers a CFG node may
// invalidate — an assigned identifier (or the root of an assigned
// selector/index chain), an inc/dec target, a range key/value, a
// declared name, any identifier whose address is taken within the
// node. all reports a target that resolves to no root (a pointer
// indirection): everything known must then be dropped.
func killedNames(n ast.Node) (names map[string]bool, all bool) {
	names = map[string]bool{}
	var targets []ast.Expr
	switch s := n.(type) {
	case *ast.AssignStmt:
		targets = s.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{s.X}
	case *ast.RangeStmt:
		targets = []ast.Expr{s.Key, s.Value}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						names[name.Name] = true
					}
				}
			}
		}
	}
	for _, t := range targets {
		if t != nil && lvalRoots(t, names) {
			all = true
		}
	}
	walkNode(n, func(m ast.Node) {
		// Address-of hands the variable to code that may mutate it.
		if m, ok := m.(*ast.UnaryExpr); ok && m.Op == token.AND {
			collectIdents(m.X, names)
		}
	})
	return names, all
}

// mentionsAny reports whether any of names is in idents.
func mentionsAny(idents, names map[string]bool) bool {
	for name := range names {
		if idents[name] {
			return true
		}
	}
	return false
}

// applyNodeKills drops the facts a statement may invalidate.
func applyNodeKills(fs factSet, n ast.Node) {
	names, all := killedNames(n)
	if all {
		clear(fs)
		return
	}
	for k, f := range fs {
		if mentionsAny(f.idents, names) {
			delete(fs, k)
		}
	}
}

// lvalRoots records the root identifier of an assignable expression;
// it returns true when the target cannot be resolved to a root (e.g. a
// pointer indirection), meaning every fact must be dropped.
func lvalRoots(e ast.Expr, into map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		into[e.Name] = true
		return false
	case *ast.SelectorExpr:
		return lvalRoots(e.X, into)
	case *ast.IndexExpr:
		return lvalRoots(e.X, into)
	case *ast.ParenExpr:
		return lvalRoots(e.X, into)
	default:
		return true
	}
}

// walkNode visits a CFG node's own expressions, without descending
// into nested function literals (analyzed as their own CFGs) or a
// RangeStmt's body (already structured into the graph).
func walkNode(n ast.Node, visit func(ast.Node)) {
	if r, ok := n.(*ast.RangeStmt); ok {
		walkNode(r.X, visit)
		if r.Key != nil {
			walkNode(r.Key, visit)
		}
		if r.Value != nil {
			walkNode(r.Value, visit)
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		visit(m)
		return true
	})
}

// guardFlow is the guard-fact domain: a must-analysis (intersection at
// joins) whose lattice is finite — facts only arise from conditions
// present in the function — and whose transfer only kills, so the
// fixpoint terminates.
func guardFlow(info *types.Info) flow[factSet] {
	return flow[factSet]{
		clone: maps.Clone[factSet],
		join: func(cur, in factSet) (factSet, bool) {
			merged := intersectFacts(cur, in)
			return merged, len(merged) != len(cur)
		},
		transfer: func(n ast.Node, fs factSet) { applyNodeKills(fs, n) },
		leaf:     func(c ast.Expr, holds bool, fs factSet) { guardLeaf(info, c, holds, fs) },
	}
}

// negateCmp maps a comparison operator to its negation (the operator
// that holds on the false edge).
func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.GEQ:
		return token.LSS
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return token.ILLEGAL
}
