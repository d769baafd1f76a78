package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/big"
)

// counterSafety flags the arithmetic bug class behind the PR 1 glbound
// underflow: operations on unsigned counters (raw uint64 and the
// noc.Cycle / noc.VTime domains) that can silently wrap or truncate.
//
// Four rules:
//
//  1. Unguarded subtraction: `a - b` (or `a -= b`) on an unsigned type
//     with no dominating guard proving a >= b. The guard is tracked
//     path-sensitively through the CFG (cfg.go, dataflow.go), so
//     `if a < b { return 0 }; return a - b` — the shape of noc.SatSub —
//     passes, as do guards established by loop conditions, &&-chains,
//     negations, and tagless switch cases. Bound reasoning is genuine
//     intervals (factIval below): x's proven lower bound —
//     from a constant, a guard fact like `x > 0` (with `x != 0` on an
//     unsigned x recognized as exactly that, admitting the
//     bitmask-iteration idiom `for m != 0 { m &= m - 1 }`), or the
//     shift structure of `1<<k` — at or above y's upper bound proves
//     the subtraction safe, uniformly covering what used to be
//     special-cased constant idioms.
//  2. Narrowing conversion: a non-constant 64-bit unsigned value
//     converted to an integer type narrower than 64 bits ('int' and
//     'uint' count as 64-bit; the simulator only targets 64-bit
//     platforms).
//  3. Over-shift: shifting by a constant at least as large as the
//     operand's bit width, which always yields zero (use noc.SatShl for
//     variable shifts).
//  4. Wrap-dead comparison: an unsigned expression compared against
//     zero with < or >= (e.g. `x - y < 0`), which unsigned wrap makes
//     constant-valued.
//
// The sanctioned escape hatches are the saturating helpers in
// internal/noc (SatSub, SatAdd, SatShl) — their own bodies pass rule 1
// because they carry the guards the analyzer looks for.
func counterSafety(p *pass, pkg *Package) {
	for _, file := range pkg.Files {
		counterExprChecks(p, pkg, file)
		for _, body := range functionBodies(file) {
			unguardedSubs(p, pkg, body)
		}
	}
}

// functionBodies returns every function body in the file — declarations
// and literals — each analyzed as its own CFG. A literal's body sees
// none of the enclosing function's guard facts (conservative: the
// literal may run at any time).
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

// unguardedSubs applies rule 1 to one function body: solve the
// must-hold guard facts over its CFG, then check every subtraction
// against the facts in force at that point.
func unguardedSubs(p *pass, pkg *Package, body *ast.BlockStmt) {
	solve(buildCFG(body), factSet{}, guardFlow(pkg.Info)).replay(func(n ast.Node, fs factSet) {
		walkNode(n, func(m ast.Node) {
			switch m := m.(type) {
			case *ast.BinaryExpr:
				if m.Op == token.SUB {
					checkSub(p, pkg, fs, m, m.X, m.Y)
				}
			case *ast.AssignStmt:
				if m.Tok == token.SUB_ASSIGN {
					checkSub(p, pkg, fs, m, m.Lhs[0], m.Rhs[0])
				}
			}
		})
	})
}

// checkSub reports the subtraction x - y (at node n) unless the facts
// in force prove it cannot wrap.
func checkSub(p *pass, pkg *Package, fs factSet, n ast.Node, x, y ast.Expr) {
	t := exprType(pkg, x)
	if t == nil || !isUnsignedInt(t) {
		return
	}
	// A constant result is checked by the compiler.
	if be, ok := n.(ast.Expr); ok && constVal(pkg, be) != nil {
		return
	}
	yv := constVal(pkg, y)
	if yv != nil && constant.Sign(yv) == 0 {
		return // x - 0
	}
	xs, ys := types.ExprString(x), types.ExprString(y)
	// Exact dominating guard: x >= y (or stronger) on every path here.
	if _, ok := fs[guardFact{a: xs, b: ys}.key()]; ok {
		return
	}
	// Interval reasoning (factIval): x's lower bound — from a
	// constant value, a guard fact like `x > 0`, or the shift-of-a-
	// positive-base structure of `1<<k` — at or above y's upper bound
	// proves the subtraction safe. This subsumes the retired
	// special cases for subtracting from a type maximum, the
	// `1<<k - 1` mask idiom, and constant-bound guard matching.
	xiv := factIval(pkg, fs, x)
	yiv := factIval(pkg, fs, y)
	if xiv.lo.Cmp(yiv.hi) >= 0 {
		return
	}
	p.report(n.Pos(), "unsigned subtraction %s - %s may wrap below zero: no dominating %s >= %s guard on some path; guard it or use noc.SatSub",
		xs, ys, xs, ys)
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
// uintptr count as 64 (the simulator targets 64-bit platforms). Type
// parameters are counters (~uint64), hence 64.
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

// ival is an integer interval: every concrete value v satisfies
// lo <= v <= hi. Bounds are exact integers, never open: an unknown
// value of type T carries T's full range (typeIval).
type ival struct {
	lo, hi *big.Int
}

// bigFromConst converts a go/constant value to an exact integer, or
// nil when it is not an integer.
func bigFromConst(v constant.Value) *big.Int {
	v = constant.ToInt(v)
	if v.Kind() != constant.Int {
		return nil
	}
	b, ok := new(big.Int).SetString(v.ExactString(), 10)
	if !ok {
		return nil
	}
	return b
}

// typeIval returns the full value range of an integer type. int, uint
// and uintptr count as 64-bit (matching bitWidth); type parameters
// resolve through their constraint (the module's only constraint is
// noc.Counter, ~uint64).
func typeIval(t types.Type) (ival, bool) {
	if t == nil || !isInteger(t) {
		return ival{}, false
	}
	w := bitWidth(t)
	if w <= 0 {
		return ival{}, false
	}
	one := big.NewInt(1)
	if isUnsignedInt(t) {
		hi := new(big.Int).Lsh(one, uint(w))
		return ival{lo: big.NewInt(0), hi: hi.Sub(hi, one)}, true
	}
	hi := new(big.Int).Lsh(one, uint(w-1))
	lo := new(big.Int).Neg(hi)
	return ival{lo: lo, hi: new(big.Int).Sub(hi, one)}, true
}

// factIval bounds e for rule 1 from constants, type ranges, and the
// guard-fact lower bounds the must-dataflow pass has already proven —
// no fixpoint of its own, so rule 1 stays cheap at module scope.
func factIval(pkg *Package, fs factSet, e ast.Expr) ival {
	if cv := constVal(pkg, e); cv != nil {
		if b := bigFromConst(cv); b != nil {
			return ival{lo: b, hi: b}
		}
	}
	iv, ok := typeIval(exprType(pkg, e))
	if !ok {
		// No type information: the caller only compares bounds, so an
		// unconstrained interval is the safe answer.
		w := new(big.Int).Lsh(big.NewInt(1), 64)
		return ival{lo: new(big.Int).Neg(w), hi: w}
	}
	// Guard facts carry constant lower bounds: x >= c (or x > c).
	key := types.ExprString(e)
	for _, f := range fs {
		if f.a != key || f.bVal == nil {
			continue
		}
		b := bigFromConst(f.bVal)
		if b == nil {
			continue
		}
		if f.strict {
			b = new(big.Int).Add(b, big.NewInt(1))
		}
		if b.Cmp(iv.lo) > 0 {
			iv.lo = b
		}
	}
	// A left shift of a positive constant base is at least the base
	// whenever the shift is meaningful (the 1<<k mask idiom).
	if sh, ok := unparen(e).(*ast.BinaryExpr); ok && sh.Op == token.SHL {
		if bv := constVal(pkg, sh.X); bv != nil {
			if b := bigFromConst(bv); b != nil && b.Sign() > 0 && b.Cmp(iv.lo) > 0 {
				iv.lo = b
			}
		}
	}
	return iv
}
