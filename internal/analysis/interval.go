package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"math/big"
	"strings"
)

// This file is the interval abstract-interpretation engine under the
// valuerange analyzer (valuerange.go) and the interval arithmetic the
// countersafety subtraction rule consumes. The domain is classic
// integer intervals with one repo-specific twist: bounds are always
// concrete big.Int values ("unknown" is the full range of the
// expression's machine type, never an open end), so every transfer
// function is exact integer arithmetic and a result interval is
// overflow-safe exactly when it is contained in its type's range.
//
// The engine is a domain of the solver in flow.go: an environment of
// refined intervals per block, comparison edges refining both operands,
// and loop heads widening to the type range after a few visits so
// iteration terminates. //ssvc:range field annotations give declared
// input intervals at config-struct reads; the analysis is otherwise
// intraprocedural. A call's result is its type's range, and a call
// invalidates every entry rooted at a pointer-carrying argument or
// receiver. The §3.3 cost product is therefore proven where it is
// formed (ctlplane's costOf and GrantedVtick), from the declared
// PacketLen and Frame, not at the sites that consume it.

// MarkRange declares the trusted value range of a config-struct field
// on the field's doc or line comment:
//
//	//ssvc:range <field> <lo>..<hi>
//
// with decimal (optionally negative) integer bounds and <field>
// matching one of the names declared on that line. The declared range
// is an input contract — the config Validate methods and admit.Check
// reject anything outside it, and the admission arithmetic takes only
// an admit.Req, which only Check builds — and the valuerange analyzer
// proves that arithmetic over declared values cannot wrap or truncate
// (DESIGN.md invariant 9 documents the rule).
const MarkRange = "//ssvc:range"

// ival is one abstract value: every concrete value v satisfies
// lo <= v <= hi. Bounds are exact integers, never open: an unknown
// value of type T carries T's full range (typeIval). lo > hi is
// bottom — the refinement proved the path dead. The declared flag
// records that the value derives from a //ssvc:range annotation (or
// from arithmetic over one), which is what makes an expression a
// "flagged path" for valuerange.
type ival struct {
	lo, hi   *big.Int
	declared bool
}

func mkIval(lo, hi int64) ival {
	return ival{lo: big.NewInt(lo), hi: big.NewInt(hi)}
}

func (v ival) isBottom() bool { return v.lo.Cmp(v.hi) > 0 }

// contains reports whether w is entirely inside v.
func (v ival) contains(w ival) bool {
	if w.isBottom() {
		return true
	}
	return v.lo.Cmp(w.lo) <= 0 && v.hi.Cmp(w.hi) >= 0
}

func (v ival) eq(w ival) bool {
	return v.declared == w.declared && v.lo.Cmp(w.lo) == 0 && v.hi.Cmp(w.hi) == 0
}

func (v ival) String() string {
	return fmt.Sprintf("[%s, %s]", v.lo, v.hi)
}

// ivJoin is the lattice join: the smallest interval covering both.
func ivJoin(a, b ival) ival {
	if a.isBottom() {
		b.declared = a.declared || b.declared
		return b
	}
	if b.isBottom() {
		a.declared = a.declared || b.declared
		return a
	}
	out := ival{lo: a.lo, hi: a.hi, declared: a.declared || b.declared}
	if b.lo.Cmp(out.lo) < 0 {
		out.lo = b.lo
	}
	if b.hi.Cmp(out.hi) > 0 {
		out.hi = b.hi
	}
	return out
}

// ivMeet is the lattice meet: the intersection (possibly bottom).
func ivMeet(a, b ival) ival {
	out := ival{lo: a.lo, hi: a.hi, declared: a.declared || b.declared}
	if b.lo.Cmp(out.lo) > 0 {
		out.lo = b.lo
	}
	if b.hi.Cmp(out.hi) < 0 {
		out.hi = b.hi
	}
	return out
}

// ivWiden accelerates an ascending chain: a bound that moved since the
// previous visit jumps straight to the type bound, a stable bound
// stays. With both sides drawn from a finite set this terminates in
// at most two more visits per entry.
func ivWiden(prev, next, bound ival) ival {
	out := ival{lo: prev.lo, hi: prev.hi, declared: prev.declared || next.declared}
	if next.lo.Cmp(prev.lo) < 0 {
		out.lo = bound.lo
	}
	if next.hi.Cmp(prev.hi) > 0 {
		out.hi = bound.hi
	}
	return out
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

// typeIval returns the full value range of an integer type: the
// "unknown" element for that type. int, uint and uintptr count as
// 64-bit (matching bitWidth); type parameters resolve through their
// constraint (the module's only constraint is noc.Counter, ~uint64).
func typeIval(t types.Type) (ival, bool) {
	if t == nil || !isIntegerKind(t) {
		return ival{}, false
	}
	w := bitWidth(t)
	if w <= 0 {
		return ival{}, false
	}
	one := big.NewInt(1)
	if isUnsignedInt(t) {
		hi := new(big.Int).Lsh(one, uint(w))
		hi.Sub(hi, one)
		return ival{lo: big.NewInt(0), hi: hi}, true
	}
	hi := new(big.Int).Lsh(one, uint(w-1))
	lo := new(big.Int).Neg(hi)
	hi = new(big.Int).Sub(hi, one)
	return ival{lo: lo, hi: hi}, true
}

// isIntegerKind reports whether t is any integer type, signed or
// unsigned, including all-unsigned type parameters. (isInteger in
// countersafety.go deliberately restricts type parameters to unsigned
// constraints; this helper shares that behavior via bitWidth's
// 64-bit type-parameter rule.)
func isIntegerKind(t types.Type) bool {
	t = types.Unalias(t)
	if tp, ok := t.(*types.TypeParam); ok {
		return typeParamAllUnsigned(tp)
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// Exact transfer functions over ℤ. None clamp to a machine type; the
// caller compares the exact result against typeIval to decide whether
// the concrete operation can wrap.

func ivAdd(a, b ival) ival {
	return ival{
		lo:       new(big.Int).Add(a.lo, b.lo),
		hi:       new(big.Int).Add(a.hi, b.hi),
		declared: a.declared || b.declared,
	}
}

func ivSub(a, b ival) ival {
	return ival{
		lo:       new(big.Int).Sub(a.lo, b.hi),
		hi:       new(big.Int).Sub(a.hi, b.lo),
		declared: a.declared || b.declared,
	}
}

func ivFromCorners(decl bool, corners ...*big.Int) ival {
	out := ival{lo: corners[0], hi: corners[0], declared: decl}
	for _, c := range corners[1:] {
		if c.Cmp(out.lo) < 0 {
			out.lo = c
		}
		if c.Cmp(out.hi) > 0 {
			out.hi = c
		}
	}
	return out
}

func ivMul(a, b ival) ival {
	return ivFromCorners(a.declared || b.declared,
		new(big.Int).Mul(a.lo, b.lo),
		new(big.Int).Mul(a.lo, b.hi),
		new(big.Int).Mul(a.hi, b.lo),
		new(big.Int).Mul(a.hi, b.hi),
	)
}

// ivQuo models Go's truncated integer division. Division by zero
// panics at runtime, so zero divisors are excluded from the corner
// set; extreme quotients occur at the divisor endpoints and at ±1.
func ivQuo(a, b ival) (ival, bool) {
	var divisors []*big.Int
	add := func(d *big.Int) {
		if d.Sign() != 0 && b.lo.Cmp(d) <= 0 && b.hi.Cmp(d) >= 0 {
			divisors = append(divisors, d)
		}
	}
	add(b.lo)
	add(b.hi)
	add(big.NewInt(1))
	add(big.NewInt(-1))
	if len(divisors) == 0 {
		return ival{}, false // all paths divide by zero (and panic)
	}
	var corners []*big.Int
	for _, d := range divisors {
		corners = append(corners,
			new(big.Int).Quo(a.lo, d),
			new(big.Int).Quo(a.hi, d),
		)
	}
	return ivFromCorners(a.declared || b.declared, corners...), true
}

// shiftCap bounds exact shift amounts so a hostile-range shift count
// cannot make big.Int allocate gigabit numbers; anything past it is
// far beyond every machine width and compares as overflow anyway.
const shiftCap = 1025

func clampShiftAmount(n *big.Int) uint {
	if n.Sign() < 0 {
		return 0
	}
	if !n.IsUint64() || n.Uint64() > shiftCap {
		return shiftCap
	}
	return uint(n.Uint64())
}

// ivShl computes x << k exactly for k >= 0 (negative shift counts
// panic at runtime and must be excluded by the caller).
func ivShl(a, k ival) ival {
	klo, khi := clampShiftAmount(k.lo), clampShiftAmount(k.hi)
	shift := func(v *big.Int, by uint) *big.Int { return new(big.Int).Lsh(v, by) }
	return ivFromCorners(a.declared || k.declared,
		shift(a.lo, klo), shift(a.lo, khi), shift(a.hi, klo), shift(a.hi, khi))
}

// ivAnd approximates & for non-negative operands: the result cannot
// exceed either operand. A negative operand gives ok=false (the caller
// falls back to the type range).
func ivAnd(a, b ival) (ival, bool) {
	if a.lo.Sign() < 0 || b.lo.Sign() < 0 {
		return ival{}, false
	}
	hi := a.hi
	if b.hi.Cmp(hi) < 0 {
		hi = b.hi
	}
	return ival{lo: big.NewInt(0), hi: hi, declared: a.declared || b.declared}, true
}

// refineLeft returns x refined by the comparison `x op y` holding, for
// op in < <= > >= == !=. Refinement never widens: the result is a
// subset of x (and may be bottom when the comparison is impossible).
func refineLeft(op token.Token, x, y ival) ival {
	one := big.NewInt(1)
	switch op {
	case token.LSS: // x < y  =>  x <= y.hi - 1
		return ivMeet(x, ival{lo: x.lo, hi: new(big.Int).Sub(y.hi, one)})
	case token.LEQ:
		return ivMeet(x, ival{lo: x.lo, hi: y.hi})
	case token.GTR: // x > y  =>  x >= y.lo + 1
		return ivMeet(x, ival{lo: new(big.Int).Add(y.lo, one), hi: x.hi})
	case token.GEQ:
		return ivMeet(x, ival{lo: y.lo, hi: x.hi})
	case token.EQL:
		return ivMeet(x, y)
	case token.NEQ:
		// Only singleton disequality trims an interval endpoint.
		if y.lo.Cmp(y.hi) == 0 {
			if x.lo.Cmp(y.lo) == 0 {
				return ival{lo: new(big.Int).Add(x.lo, one), hi: x.hi, declared: x.declared}
			}
			if x.hi.Cmp(y.hi) == 0 {
				return ival{lo: x.lo, hi: new(big.Int).Sub(x.hi, one), declared: x.declared}
			}
		}
	}
	return x
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

// ---------------------------------------------------------------------
// Environment: refined intervals per expression, keyed like guard
// facts by types.ExprString, with the same kill discipline.

// ivEntry is one refined binding. def is the key's context-free
// default (annotation or type range), joined back in when a merge sees
// the key on only one side; idents are the identifiers the key mentions,
// any of which being killed drops the entry.
type ivEntry struct {
	iv     ival
	def    ival
	t      types.Type
	idents map[string]bool
}

// ivEnv maps types.ExprString keys to refined intervals.
type ivEnv map[string]ivEntry

// joinIvEnv merges two path environments. A key on one side only joins
// with its own default — absence means "no refinement", which the
// evaluator resolves to exactly that default.
func joinIvEnv(a, b ivEnv) ivEnv {
	out := make(ivEnv, len(a))
	for k, ea := range a {
		if eb, ok := b[k]; ok {
			ea.iv = ivJoin(ea.iv, eb.iv)
		} else {
			ea.iv = ivJoin(ea.iv, ea.def)
		}
		out[k] = ea
	}
	for k, eb := range b {
		if _, ok := a[k]; ok {
			continue
		}
		eb.iv = ivJoin(eb.iv, eb.def)
		out[k] = eb
	}
	return out
}

func ivEnvEqual(a, b ivEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok || !ea.iv.eq(eb.iv) {
			return false
		}
	}
	return true
}

// widenIvEnv widens prev toward merged, entry-wise against each
// entry's type range.
func widenIvEnv(prev, merged ivEnv) ivEnv {
	out := make(ivEnv, len(merged))
	for k, em := range merged {
		if ep, ok := prev[k]; ok {
			bound := em.def
			if tb, ok := typeIval(em.t); ok {
				bound = tb
			}
			em.iv = ivWiden(ep.iv, em.iv, bound)
		}
		out[k] = em
	}
	return out
}

// ---------------------------------------------------------------------
// Analysis context shared by one valuerange run: the loader, the call
// graph's function index, and the //ssvc:range declarations.

type ivCtx struct {
	*pass
	ranges   map[*types.Var]ival
	barriers map[*types.Func]bool
}

// newIvCtx collects //ssvc:range annotations and //ssvc:barrier
// function markers (the clamping helpers) from every package the call
// graph indexed.
// Malformed annotations become diagnostics (fail closed and visible),
// never silent trust.
func newIvCtx(p *pass) *ivCtx {
	cx := &ivCtx{
		pass:     p,
		ranges:   map[*types.Var]ival{},
		barriers: map[*types.Func]bool{},
	}
	for _, pkg := range p.cg.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, f := range st.Fields.List {
					cx.collectFieldRanges(pkg, f)
				}
				return true
			})
		}
	}
	for fn, fi := range p.cg.funcs {
		if fi.decl.Doc == nil {
			continue
		}
		for _, c := range fi.decl.Doc.List {
			if isMarker(c.Text, MarkBarrier) {
				cx.barriers[fn] = true
			}
		}
	}
	return cx
}

// collectFieldRanges parses the //ssvc:range annotations on one struct
// field declaration.
func (cx *ivCtx) collectFieldRanges(pkg *Package, f *ast.Field) {
	for _, grp := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if grp == nil {
			continue
		}
		for _, c := range grp.List {
			if !isMarker(c.Text, MarkRange) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(c.Text, MarkRange))
			if len(fields) != 2 {
				cx.report(c.Pos(), "malformed %s annotation: want %q", MarkRange, MarkRange+" <field> <lo>..<hi>")
				continue
			}
			name, rng := fields[0], fields[1]
			loS, hiS, ok := strings.Cut(rng, "..")
			if !ok {
				cx.report(c.Pos(), "malformed %s range %q: want <lo>..<hi>", MarkRange, rng)
				continue
			}
			lo, okLo := new(big.Int).SetString(loS, 10)
			hi, okHi := new(big.Int).SetString(hiS, 10)
			if !okLo || !okHi || lo.Cmp(hi) > 0 {
				cx.report(c.Pos(), "malformed %s bounds %q: want decimal integers with lo <= hi", MarkRange, rng)
				continue
			}
			var fv *types.Var
			for _, id := range f.Names {
				if id.Name == name {
					fv, _ = pkg.Info.Defs[id].(*types.Var)
				}
			}
			if fv == nil {
				cx.report(c.Pos(), "%s names %q, which is not declared on this field", MarkRange, name)
				continue
			}
			tb, ok := typeIval(fv.Type())
			if !ok {
				cx.report(c.Pos(), "%s on %s: field type %s is not an integer", MarkRange, name, fv.Type())
				continue
			}
			decl := ival{lo: lo, hi: hi, declared: true}
			if !tb.contains(decl) {
				cx.report(c.Pos(), "%s on %s: declared %s exceeds the range of %s", MarkRange, name, decl, fv.Type())
				continue
			}
			cx.ranges[fv] = decl
		}
	}
}

// fieldRange resolves a selector expression to its //ssvc:range
// declaration, if any.
func (cx *ivCtx) fieldRange(pkg *Package, e ast.Expr) (ival, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ival{}, false
	}
	fv := fieldVarOf(pkg.Info, sel)
	if fv == nil {
		return ival{}, false
	}
	iv, ok := cx.ranges[fv]
	return iv, ok
}

// defaultIval is an expression's context-free abstract value: its
// declared range if annotated, otherwise its type range.
func (cx *ivCtx) defaultIval(pkg *Package, e ast.Expr, t types.Type) (ival, bool) {
	if iv, ok := cx.fieldRange(pkg, e); ok {
		return iv, true
	}
	return typeIval(t)
}

// keyableExpr reports whether e has a stable ExprString identity the
// environment may track: a chain of locals, field selections, constant
// or tracked indexes and dereferences, with no calls and no
// package-level roots (another goroutine or callee could change those
// behind our back; the module's globals are out of scope by design).
func keyableExpr(pkg *Package, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return false
		}
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		switch obj := obj.(type) {
		case *types.Var:
			return obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope()
		case *types.Const:
			return true
		}
		return false
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return false // package-qualified: a global
			}
		}
		return keyableExpr(pkg, e.X)
	case *ast.IndexExpr:
		return keyableExpr(pkg, e.X) && keyableExpr(pkg, e.Index)
	case *ast.StarExpr:
		return keyableExpr(pkg, e.X)
	case *ast.ParenExpr:
		return keyableExpr(pkg, e.X)
	case *ast.BasicLit:
		return e.Kind == token.INT
	}
	return false
}

// setEntry stores a refined interval for a keyable expression.
func setEntry(pkg *Package, env ivEnv, e ast.Expr, iv, def ival, t types.Type) {
	ids := map[string]bool{}
	collectIdents(e, ids)
	env[types.ExprString(e)] = ivEntry{iv: iv, def: def, t: t, idents: ids}
}

// eval computes the abstract value of an integer expression under env.
// ok is false for non-integer expressions (and for type parameters
// outside the all-unsigned constraint the module uses).
func (cx *ivCtx) eval(pkg *Package, env ivEnv, e ast.Expr) (ival, bool) {
	if e == nil {
		return ival{}, false
	}
	e = unparen(e)
	t := exprType(pkg, e)
	if cv := constVal(pkg, e); cv != nil {
		if b := bigFromConst(cv); b != nil {
			return ival{lo: b, hi: b}, true
		}
		return ival{}, false
	}
	if t == nil || !isIntegerKind(t) {
		return ival{}, false
	}
	tb, okT := typeIval(t)
	if !okT {
		return ival{}, false
	}
	if ent, ok := env[types.ExprString(e)]; ok {
		return ent.iv, true
	}
	switch e := e.(type) {
	case *ast.BinaryExpr:
		return cx.evalBinary(pkg, env, e.Op, e.X, e.Y, t)
	case *ast.UnaryExpr:
		x, ok := cx.eval(pkg, env, e.X)
		if !ok {
			return tb, true
		}
		if e.Op == token.ADD {
			return x, true
		}
		return ival{lo: tb.lo, hi: tb.hi, declared: x.declared}, true
	case *ast.CallExpr:
		return cx.evalCall(pkg, env, e, t, tb)
	case *ast.SelectorExpr:
		if iv, ok := cx.fieldRange(pkg, e); ok {
			return iv, true
		}
		return tb, true
	}
	return tb, true
}

// evalBinary applies one arithmetic transfer function and clamps the
// result to the expression's type: a result that fits is exact, one
// that could wrap degrades to the full type range (the declared flag
// survives so valuerange still reports the wrapping site). Only + - *
// / << and & have transfer functions, the operators some proof over
// the tree needs; the rest give their type's range, declared flag
// kept.
func (cx *ivCtx) evalBinary(pkg *Package, env ivEnv, op token.Token, xe, ye ast.Expr, t types.Type) (ival, bool) {
	tb, ok := typeIval(t)
	if !ok {
		return ival{}, false
	}
	x, okX := cx.eval(pkg, env, xe)
	y, okY := cx.eval(pkg, env, ye)
	if !okX || !okY {
		return tb, true
	}
	var r ival
	switch op {
	case token.ADD:
		r = ivAdd(x, y)
	case token.SUB:
		r = ivSub(x, y)
	case token.MUL:
		r = ivMul(x, y)
	case token.QUO:
		q, ok := ivQuo(x, y)
		if !ok {
			return tb, true
		}
		r = q
	case token.SHL:
		if y.lo.Sign() < 0 {
			return tb, true // possibly-negative count panics, not wraps
		}
		r = ivShl(x, y)
	case token.AND:
		q, ok := ivAnd(x, y)
		if !ok {
			return tb, true
		}
		r = q
	default:
		// %, >>, |, ^ and &^: no check needs their bounds.
		return ival{lo: tb.lo, hi: tb.hi, declared: x.declared || y.declared}, true
	}
	return clampToType(r, tb), true
}

// clampToType degrades an exact result that escapes its machine type
// to the full type range: the concrete operation wraps, so nothing
// tighter is sound. The declared flag survives.
func clampToType(r, tb ival) ival {
	if tb.contains(r) {
		return r
	}
	return ival{lo: tb.lo, hi: tb.hi, declared: r.declared}
}

// evalCall handles conversions and the len/cap builtins; any other
// call's result is its type's range.
func (cx *ivCtx) evalCall(pkg *Package, env ivEnv, call *ast.CallExpr, t types.Type, tb ival) (ival, bool) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		inner, ok := cx.eval(pkg, env, call.Args[0])
		if !ok {
			return tb, true // float or other non-integer source
		}
		if tb.contains(inner) {
			return inner, true
		}
		return ival{lo: tb.lo, hi: tb.hi, declared: inner.declared}, true
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				return ival{lo: big.NewInt(0), hi: tb.hi}, true
			}
			return tb, true
		}
	}
	return tb, true
}

// ---------------------------------------------------------------------
// The per-function fixpoint.

// widenDelay is how many joins a block absorbs before widening kicks
// in; small enough to terminate fast, large enough that short counting
// loops converge exactly first.
const widenDelay = 3

// flow is the interval domain over one package's syntax: join at
// merges, widened once a block has absorbed widenDelay of them.
func (cx *ivCtx) flow(pkg *Package) flow[ivEnv] {
	return flow[ivEnv]{
		clone: maps.Clone[ivEnv],
		join: func(cur, in ivEnv, visits int) (ivEnv, bool) {
			merged := joinIvEnv(cur, in)
			if visits > widenDelay {
				merged = widenIvEnv(cur, merged)
			}
			return merged, !ivEnvEqual(merged, cur)
		},
		transfer: func(n ast.Node, env ivEnv) { cx.applyNode(pkg, env, n) },
		leaf:     func(c ast.Expr, holds bool, env ivEnv) { cx.refineLeaf(pkg, env, c, holds) },
	}
}

// applyNode advances the environment across one CFG node: evaluate
// effects, kill what the node may invalidate, and store new bindings
// for keyable integer targets.
func (cx *ivCtx) applyNode(pkg *Package, env ivEnv, n ast.Node) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		cx.applyAssign(pkg, env, s)
		return
	case *ast.IncDecStmt:
		t := exprType(pkg, s.X)
		var val ival
		okVal := false
		if t != nil && isIntegerKind(t) {
			if tb, okT := typeIval(t); okT {
				if x, ok := cx.eval(pkg, env, s.X); ok {
					one := mkIval(1, 1)
					if s.Tok == token.DEC {
						val = ivSub(x, one)
					} else {
						val = ivAdd(x, one)
					}
					val, okVal = clampToType(val, tb), true
				}
			}
		}
		cx.killNode(pkg, env, n)
		if okVal && keyableExpr(pkg, s.X) {
			if def, ok := cx.defaultIval(pkg, s.X, t); ok {
				setEntry(pkg, env, s.X, val, def, t)
			}
		}
		return
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			cx.killNode(pkg, env, n)
			return
		}
		type binding struct {
			id  *ast.Ident
			iv  ival
			t   types.Type
			okV bool
		}
		var binds []binding
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj, _ := pkg.Info.Defs[name].(*types.Var)
				if obj == nil || !isIntegerKind(obj.Type()) {
					continue
				}
				b := binding{id: name, t: obj.Type()}
				switch {
				case len(vs.Values) == len(vs.Names):
					b.iv, b.okV = cx.eval(pkg, env, vs.Values[i])
				case len(vs.Values) == 0:
					b.iv, b.okV = mkIval(0, 0), true // zero value
				}
				binds = append(binds, b)
			}
		}
		cx.killNode(pkg, env, n)
		for _, b := range binds {
			if !b.okV || b.id.Name == "_" {
				continue
			}
			if def, ok := typeIval(b.t); ok {
				setEntry(pkg, env, b.id, b.iv, def, b.t)
			}
		}
		return
	case *ast.RangeStmt:
		var keyIv ival
		keyOK := false
		if s.Key != nil {
			if t := exprType(pkg, s.Key); t != nil && isIntegerKind(t) {
				tb, okT := typeIval(t)
				if !okT {
					cx.killNode(pkg, env, n)
					return
				}
				keyIv, keyOK = ival{lo: big.NewInt(0), hi: tb.hi}, true
				if xt := exprType(pkg, s.X); xt != nil && isIntegerKind(xt) {
					// range-over-int: key in [0, n-1].
					if xv, ok := cx.eval(pkg, env, s.X); ok {
						hi := new(big.Int).Sub(xv.hi, big.NewInt(1))
						if hi.Sign() < 0 {
							hi = big.NewInt(0)
						}
						keyIv = ival{lo: big.NewInt(0), hi: hi, declared: xv.declared}
					}
				} else if xt != nil {
					switch xt.Underlying().(type) {
					case *types.Map, *types.Chan:
						keyIv = tb // arbitrary keys/values
					}
				}
			}
		}
		cx.killNode(pkg, env, n)
		if keyOK {
			if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
				t := exprType(pkg, s.Key)
				if def, ok := typeIval(t); ok {
					setEntry(pkg, env, id, ivMeet(keyIv, def), def, t)
				}
			}
		}
		return
	}
	cx.killNode(pkg, env, n)
}

// applyAssign handles plain, define, and compound assignments.
func (cx *ivCtx) applyAssign(pkg *Package, env ivEnv, s *ast.AssignStmt) {
	type binding struct {
		lhs ast.Expr
		iv  ival
		t   types.Type
		okV bool
	}
	var binds []binding
	switch {
	case s.Tok == token.ASSIGN || s.Tok == token.DEFINE:
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				t := exprType(pkg, lhs)
				if t == nil {
					// A := definition's target ident is recorded in Defs,
					// not Types.
					if id, ok := unparen(lhs).(*ast.Ident); ok {
						if obj, ok := pkg.Info.Defs[id].(*types.Var); ok {
							t = obj.Type()
						}
					}
				}
				if t == nil || !isIntegerKind(t) {
					continue
				}
				iv, ok := cx.eval(pkg, env, s.Rhs[i])
				if tb, okT := typeIval(t); ok && okT {
					iv = ivMeet(iv, tb)
				} else {
					ok = false
				}
				binds = append(binds, binding{lhs: lhs, iv: iv, t: t, okV: ok})
			}
		}
	default:
		// Compound assignment: lhs op= rhs. go/token declares the
		// *_ASSIGN tokens in their operators' order, as go/types uses.
		op := s.Tok - token.ADD_ASSIGN + token.ADD
		lhs := s.Lhs[0]
		t := exprType(pkg, lhs)
		if t != nil && isIntegerKind(t) {
			iv, ok := cx.evalBinary(pkg, env, op, lhs, s.Rhs[0], t)
			binds = append(binds, binding{lhs: lhs, iv: iv, t: t, okV: ok})
		}
	}
	cx.killNode(pkg, env, s)
	for _, b := range binds {
		if !b.okV || !keyableExpr(pkg, b.lhs) {
			continue
		}
		if def, ok := cx.defaultIval(pkg, b.lhs, b.t); ok {
			setEntry(pkg, env, b.lhs, b.iv, def, b.t)
		}
	}
}

// killNode drops the entries a node may invalidate: the shared kill
// model of killedNames plus anything rooted at a pointer-carrying
// argument or receiver of a call, which the callee may write through.
func (cx *ivCtx) killNode(pkg *Package, env ivEnv, n ast.Node) {
	names, all := killedNames(n, func(call *ast.CallExpr, names map[string]bool) {
		cx.callKillNames(pkg, call, names)
	})
	if all {
		clear(env)
		return
	}
	for k, e := range env {
		if mentionsAny(e.idents, names) {
			delete(env, k)
		}
	}
}

// callKillNames adds the identifiers a call site may mutate through
// pointer-carrying arguments or receivers; a value argument's writes
// stay in the callee's copy.
func (cx *ivCtx) callKillNames(pkg *Package, call *ast.CallExpr, names map[string]bool) {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	exprs := call.Args
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			exprs = append([]ast.Expr{sel.X}, exprs...)
		}
	}
	for _, a := range exprs {
		if t := exprType(pkg, a); t != nil && indirectType(t.Underlying()) {
			collectIdents(a, names)
		}
	}
}

// refineLeaf refines the environment by one comparison (the only
// binary expression that reaches a leaf) known to evaluate to holds:
// the left operand narrows, under the negated operator when it is
// refuted. The guards the proofs rest on put the guarded value on the
// left.
func (cx *ivCtx) refineLeaf(pkg *Package, env ivEnv, cond ast.Expr, holds bool) {
	c, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return
	}
	op := c.Op
	if !holds {
		op = negateCmp(op)
	}
	x, okX := cx.eval(pkg, env, c.X)
	y, okY := cx.eval(pkg, env, c.Y)
	if okX && okY {
		cx.storeRefined(pkg, env, c.X, refineLeft(op, x, y))
	}
}

// storeRefined records a refinement for a keyable non-constant
// expression when it is strictly tighter than what eval already knows.
func (cx *ivCtx) storeRefined(pkg *Package, env ivEnv, e ast.Expr, iv ival) {
	e = unparen(e)
	if constVal(pkg, e) != nil || !keyableExpr(pkg, e) {
		return
	}
	t := exprType(pkg, e)
	if t == nil || !isIntegerKind(t) {
		return
	}
	cur, ok := cx.eval(pkg, env, e)
	if ok && cur.eq(iv) {
		return
	}
	if def, ok := cx.defaultIval(pkg, e, t); ok {
		setEntry(pkg, env, e, iv, def, t)
	}
}

// ---------------------------------------------------------------------
// factIval: the lightweight interval constructor countersafety's
// subtraction rule uses in place of its retired const-bound special
// cases. It consults constants, type ranges, and the guard-fact lower
// bounds already proven by the must-dataflow pass — no CFG fixpoint of
// its own, so rule 1 stays cheap at module scope.

func factIval(pkg *Package, fs factSet, e ast.Expr) ival {
	if cv := constVal(pkg, e); cv != nil {
		if b := bigFromConst(cv); b != nil {
			return ival{lo: b, hi: b}
		}
	}
	t := exprType(pkg, e)
	iv, ok := typeIval(t)
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
			iv = ival{lo: b, hi: iv.hi, declared: iv.declared}
		}
	}
	// A left shift of a positive constant base is at least the base
	// whenever the shift is meaningful (the 1<<k mask idiom).
	if sh, ok := unparen(e).(*ast.BinaryExpr); ok && sh.Op == token.SHL {
		if bv := constVal(pkg, sh.X); bv != nil {
			if b := bigFromConst(bv); b != nil && b.Sign() > 0 && b.Cmp(iv.lo) > 0 {
				iv = ival{lo: b, hi: iv.hi, declared: iv.declared}
			}
		}
	}
	return iv
}
