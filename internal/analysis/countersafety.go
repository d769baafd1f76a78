package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
)

// counterSafety flags the arithmetic bug class behind the PR 1 glbound
// underflow: operations on unsigned counters (raw uint64 and the
// noc.Cycle / noc.VTime domains) that can silently wrap or truncate.
//
// Four rules:
//
//  1. Unguarded subtraction: `x - y` (or `x -= y`) on an unsigned type,
//     neither constant nor with y the constant 0, must have one of the
//     shapes guarded names: the `1<<k - 1` mask, an early exit
//     (`if x < y { return 0 }; return x - y`, the shape of noc.SatSub),
//     a then block (`if x >= y { … x - y … }`, and for y = 1 also under
//     `if x != 0` or `for x != 0`), or a bitmask walk's post statement
//     (`for ; m != 0; m &= m - 1`). Everything else goes through
//     noc.SatSub, the paper's §3.1 saturating subtract.
//  2. Narrowing conversion: a non-constant 64-bit unsigned value
//     converted to an integer type narrower than 64 bits. 'int' and
//     'uint' count as 64-bit, so a conversion to them is not flagged;
//     on a 32-bit build (make portable runs one) it narrows all the
//     same, and must stay in range by a check or a simulated-time bound
//     at its site.
//  3. Over-shift: shifting by a constant at least as large as the
//     operand's bit width, which always yields zero (use noc.SatShl for
//     variable shifts).
//  4. Wrap-dead comparison: an unsigned expression compared against
//     zero with < or >= (e.g. `x - y < 0`), which unsigned wrap makes
//     constant-valued.
//
// The sanctioned escape hatches are the saturating helpers in
// internal/noc (SatSub, SatAdd, SatShl) — their own bodies pass rule 1
// because they carry the guards it looks for.
func counterSafety(p *pass, pkg *Package) {
	for _, file := range pkg.Files {
		counterExprChecks(p, pkg, file)
		unguardedSubs(p, pkg, file)
	}
}

// unguardedSubs applies rule 1 to one file, keeping the path from the
// file down to each node so a subtraction can see its statement and the
// blocks around it.
func unguardedSubs(p *pass, pkg *Package, file *ast.File) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.SUB {
				checkSub(p, pkg, stack, n.X, n.Y)
			}
		case *ast.AssignStmt:
			if n.Tok == token.SUB_ASSIGN {
				checkSub(p, pkg, stack, n.Lhs[0], n.Rhs[0])
			}
		}
		return true
	})
}

// checkSub reports the subtraction x - y (the last node of stack)
// unless guarded shows it cannot wrap.
func checkSub(p *pass, pkg *Package, stack []ast.Node, x, y ast.Expr) {
	n := stack[len(stack)-1]
	t := exprType(pkg, x)
	if t == nil || !isUnsignedInt(t) {
		return
	}
	// A constant result is checked by the compiler.
	if be, ok := n.(ast.Expr); ok && constVal(pkg, be) != nil {
		return
	}
	if isConstInt(pkg, y, 0) {
		return // x - 0
	}
	if guarded(pkg, stack, x, y) {
		return
	}
	xs, ys := types.ExprString(x), types.ExprString(y)
	p.report(n.Pos(), "unsigned subtraction %s - %s may wrap below zero: not a 1<<k - 1 mask, after an adjacent `if %s < %s` exit, directly in an `if %s >= %s` then block, or a bitmask walk's post; use one of those or noc.SatSub",
		xs, ys, xs, ys, xs, ys)
}

// guarded reports whether x - y (the last node of stack) has one of the
// four shapes that keep it from wrapping. Only the mask takes
// other operands than plain ones: every guard compares x and y by
// their source text, so both must be identifiers, field selectors,
// index expressions of those, or constants — no call, no dereference.
// The subtraction's statement is the innermost one holding it; a
// function literal's body is statements of its own, so no guard
// outside a literal reaches a subtraction inside it.
func guarded(pkg *Package, stack []ast.Node, x, y ast.Expr) bool {
	one := isConstInt(pkg, y, 1)
	if sh, ok := unparen(x).(*ast.BinaryExpr); ok && sh.Op == token.SHL && one && isConstInt(pkg, sh.X, 1) {
		return true // the mask 1<<k - 1
	}
	names := map[string]bool{}
	if !operand(pkg, x, names) || !operand(pkg, y, names) {
		return false
	}
	xs, ys := types.ExprString(unparen(x)), types.ExprString(unparen(y))
	i := len(stack) - 1
	for i >= 2 {
		if _, ok := stack[i].(ast.Stmt); ok {
			break
		}
		i--
	}
	if i < 2 {
		return false // a package-level declaration
	}
	stmt, parent := stack[i].(ast.Stmt), stack[i-1]
	if f, ok := parent.(*ast.ForStmt); ok {
		// The post statement: for ; x != 0; x &= x - 1 { … }
		return f.Post == stmt && one && nonzero(pkg, f.Cond, xs) && !kills(names, f.Body)
	}
	var list []ast.Stmt
	switch b := parent.(type) {
	case *ast.BlockStmt:
		list = b.List
	case *ast.CaseClause:
		list = b.Body
	case *ast.CommClause:
		list = b.Body
	}
	j := slices.Index(list, stmt)
	if j < 0 || kills(names, header(stmt)...) {
		return false
	}
	if j > 0 {
		// An early exit: if x < y { return }; … x - y …
		if g, ok := list[j-1].(*ast.IfStmt); ok && g.Init == nil && g.Else == nil && exits(g.Body) && orders(g.Cond, ys, xs) {
			return true
		}
	}
	if kills(names, list[:j]...) {
		return false
	}
	// A then block: if x >= y { … x - y … }, or for x != 0 { … x - 1 … }.
	switch g := stack[i-2].(type) {
	case *ast.IfStmt:
		return g.Body == parent && (orders(g.Cond, xs, ys) || one && nonzero(pkg, g.Cond, xs))
	case *ast.ForStmt:
		return g.Body == parent && one && nonzero(pkg, g.Cond, xs)
	}
	return false
}

// operand reports whether e is an identifier, a field selector, an
// index expression of those, or a constant, and adds to names every
// variable it reads: a selector's root, an index expression's root and
// index.
func operand(pkg *Package, e ast.Expr, names map[string]bool) bool {
	if constVal(pkg, e) != nil {
		return true
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		names[e.Name] = true
		return true
	case *ast.SelectorExpr:
		return operand(pkg, e.X, names)
	case *ast.IndexExpr:
		return operand(pkg, e.X, names) && operand(pkg, e.Index, names)
	}
	return false
}

// orders reports whether cond is a comparison proving hi >= lo:
// `hi >= lo`, `hi > lo` or the mirrored `lo <= hi`, `lo < hi`.
func orders(cond ast.Expr, hi, lo string) bool {
	c, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	l, r := types.ExprString(unparen(c.X)), types.ExprString(unparen(c.Y))
	switch c.Op {
	case token.GEQ, token.GTR:
		return l == hi && r == lo
	case token.LEQ, token.LSS:
		return l == lo && r == hi
	}
	return false
}

// nonzero reports whether cond is `x != 0` or `x > 0`, or the same
// spelled zero-first, which on an unsigned x both prove x >= 1.
func nonzero(pkg *Package, cond ast.Expr, x string) bool {
	c, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch {
	case (c.Op == token.NEQ || c.Op == token.GTR) && isConstInt(pkg, c.Y, 0):
		return types.ExprString(unparen(c.X)) == x
	case (c.Op == token.NEQ || c.Op == token.LSS) && isConstInt(pkg, c.X, 0):
		return types.ExprString(unparen(c.Y)) == x
	}
	return false
}

// exits reports whether a block ends by leaving the block it sits in:
// a return, continue or break.
func exits(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK
	}
	return false
}

// header returns the parts of a compound statement that run before the
// expression in its header that holds a subtraction: an if's or a
// switch's init, and a for loop's init, body and post, which all run
// before its condition is evaluated again.
func header(s ast.Stmt) []ast.Stmt {
	var parts []ast.Stmt
	switch s := s.(type) {
	case *ast.IfStmt:
		parts = append(parts, s.Init)
	case *ast.SwitchStmt:
		parts = append(parts, s.Init)
	case *ast.ForStmt:
		parts = append(parts, s.Init, s.Body, s.Post)
	}
	return parts
}

// kills reports whether any of the statements (walked whole, function
// literals included) may change a variable in names: by assigning it,
// incrementing or decrementing it, ranging into it, declaring it anew,
// or taking its address. An assignment through a dereference may change
// anything.
func kills(names map[string]bool, stmts ...ast.Stmt) bool {
	killed := false
	hit := func(e ast.Expr) {
		if e == nil {
			return
		}
		for {
			switch v := e.(type) {
			case *ast.Ident:
				killed = killed || names[v.Name]
				return
			case *ast.SelectorExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			case *ast.ParenExpr:
				e = v.X
			default:
				killed = true
				return
			}
		}
	}
	for _, s := range stmts {
		if s == nil {
			continue
		}
		ast.Inspect(s, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for _, l := range s.Lhs {
					hit(l)
				}
			case *ast.IncDecStmt:
				hit(s.X)
			case *ast.RangeStmt:
				hit(s.Key)
				hit(s.Value)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					hit(id)
				}
			case *ast.UnaryExpr:
				if _, lit := s.X.(*ast.CompositeLit); s.Op == token.AND && !lit {
					hit(s.X)
				}
			}
			return !killed
		})
	}
	return killed
}

// isConstInt reports whether e is the integer constant v.
func isConstInt(pkg *Package, e ast.Expr, v int64) bool {
	cv := constVal(pkg, e)
	return cv != nil && constant.Compare(cv, token.EQL, constant.MakeInt64(v))
}

// counterExprChecks applies the context-free rules 2-4 to a whole file.
func counterExprChecks(p *pass, pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Rule 2: narrowing conversion of a 64-bit unsigned value.
			tv, ok := pkg.Info.Types[n.Fun]
			if !ok || !tv.IsType() || len(n.Args) != 1 {
				return true
			}
			src := exprType(pkg, n.Args[0])
			if src == nil || constVal(pkg, n.Args[0]) != nil {
				return true // constant conversions are compiler-checked
			}
			dst := tv.Type
			if isUnsignedInt(src) && bitWidth(src) == 64 && isInteger(dst) {
				if w := bitWidth(dst); w > 0 && w < 64 {
					p.report(n.Pos(), "narrowing conversion %s truncates a 64-bit counter to %d bits",
						types.ExprString(n), w)
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.SHL, token.SHR:
				// Rule 3: constant shift >= bit width.
				overShift(p, pkg, n.X, n.Y, n.Pos())
			case token.LSS, token.GEQ:
				// Rule 4: unsigned < 0 / unsigned >= 0.
				if isDeadZeroCompare(pkg, n.X, n.Y) {
					p.report(n.Pos(), "comparison %s is decided by unsigned wrap: an unsigned value is never negative",
						types.ExprString(n))
				}
			case token.GTR, token.LEQ:
				// The same comparisons spelled zero-first: 0 > x / 0 <= x.
				if isDeadZeroCompare(pkg, n.Y, n.X) {
					p.report(n.Pos(), "comparison %s is decided by unsigned wrap: an unsigned value is never negative",
						types.ExprString(n))
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN {
				overShift(p, pkg, n.Lhs[0], n.Rhs[0], n.Pos())
			}
		}
		return true
	})
}

func overShift(p *pass, pkg *Package, x, k ast.Expr, pos token.Pos) {
	if constVal(pkg, x) != nil {
		return // constant shifts are compiler-checked
	}
	kv := constVal(pkg, k)
	if kv == nil {
		return // variable shifts are noc.SatShl's job
	}
	t := exprType(pkg, x)
	if t == nil || !isInteger(t) {
		return
	}
	w := bitWidth(t)
	if amt, ok := constant.Uint64Val(kv); ok && w > 0 && amt >= uint64(w) {
		p.report(pos, "shift of a %d-bit value by %d always discards every bit; use noc.SatShl or a smaller constant", w, amt)
	}
}

// isDeadZeroCompare reports whether e is a non-constant unsigned
// expression and z is the constant zero.
func isDeadZeroCompare(pkg *Package, e, z ast.Expr) bool {
	zv := constVal(pkg, z)
	if zv == nil || constant.Sign(zv) != 0 {
		return false
	}
	if constVal(pkg, e) != nil {
		return false
	}
	t := exprType(pkg, e)
	return t != nil && isUnsignedInt(t)
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func exprType(pkg *Package, e ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

func constVal(pkg *Package, e ast.Expr) constant.Value {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return nil
	}
	return constant.ToInt(tv.Value)
}

// isUnsignedInt reports whether t is an unsigned integer type,
// including named types (noc.Cycle, noc.VTime) and type parameters
// whose constraint admits only unsigned terms (noc.Counter).
func isUnsignedInt(t types.Type) bool {
	t = types.Unalias(t)
	if tp, ok := t.(*types.TypeParam); ok {
		return typeParamAllUnsigned(tp)
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

func isInteger(t types.Type) bool {
	t = types.Unalias(t)
	if tp, ok := t.(*types.TypeParam); ok {
		return typeParamAllUnsigned(tp)
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func typeParamAllUnsigned(tp *types.TypeParam) bool {
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	seen := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch et := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < et.Len(); j++ {
				b, ok := et.Term(j).Type().Underlying().(*types.Basic)
				if !ok || b.Info()&types.IsUnsigned == 0 {
					return false
				}
				seen = true
			}
		default:
			b, ok := et.Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsUnsigned == 0 {
				return false
			}
			seen = true
		}
	}
	return seen
}

// bitWidth returns the width of an integer type in bits; int, uint and
// uintptr count as 64, their width on a 64-bit build, so rule 2 passes a
// conversion to them, which on a 32-bit build must stay in range by a
// check or a simulated-time bound at its site. Type parameters are
// counters (~uint64), hence 64.
func bitWidth(t types.Type) int {
	t = types.Unalias(t)
	if _, ok := t.(*types.TypeParam); ok {
		return 64
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0
	}
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	case types.Int, types.Int64, types.Uint, types.Uint64, types.Uintptr:
		return 64
	}
	return 0
}
