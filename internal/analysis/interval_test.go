package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math/big"
	"testing"
)

// The interval engine's transfer functions are exact arithmetic over
// ℤ; these tests pin the lattice operations, the widening operator,
// and every corner rule the valuerange analyzer's soundness
// rests on. All cases are closed-form — a wrong bound here is a wrong
// proof over the real tree.

func decl(v ival) ival {
	v.declared = true
	return v
}

func wantIval(t *testing.T, name string, got, want ival) {
	t.Helper()
	if !got.eq(want) {
		t.Fatalf("%s = %v (declared=%v), want %v (declared=%v)",
			name, got, got.declared, want, want.declared)
	}
}

func TestIvalLattice(t *testing.T) {
	a := mkIval(1, 5)
	b := mkIval(3, 9)
	wantIval(t, "join", ivJoin(a, b), mkIval(1, 9))
	wantIval(t, "meet", ivMeet(a, b), mkIval(3, 5))

	// Disjoint meet is bottom.
	if m := ivMeet(mkIval(0, 2), mkIval(5, 9)); !m.isBottom() {
		t.Fatalf("disjoint meet = %v, want bottom", m)
	}

	// Bottom is the join identity and is contained in everything.
	bot := mkIval(4, 1)
	if !bot.isBottom() {
		t.Fatalf("mkIval(4,1).isBottom() = false")
	}
	wantIval(t, "join with bottom", ivJoin(bot, a), a)
	wantIval(t, "join onto bottom", ivJoin(a, bot), a)
	if !a.contains(bot) {
		t.Fatalf("interval does not contain bottom")
	}
	if !a.contains(mkIval(2, 4)) || a.contains(mkIval(0, 4)) {
		t.Fatalf("contains: subset/superset misjudged")
	}

	// The declared flag survives joins and meets through either side,
	// including the bottom shortcut paths.
	if !ivJoin(decl(a), b).declared || !ivJoin(a, decl(b)).declared {
		t.Fatalf("join dropped declared flag")
	}
	if !ivMeet(a, decl(b)).declared {
		t.Fatalf("meet dropped declared flag")
	}
	if !ivJoin(decl(bot), b).declared {
		t.Fatalf("join with declared bottom dropped the flag")
	}
}

func TestIvalWiden(t *testing.T) {
	bound := mkIval(0, 255)
	prev := mkIval(0, 10)

	// A bound that moved jumps to the type bound; a stable bound stays.
	wantIval(t, "widen hi", ivWiden(prev, mkIval(0, 11), bound), mkIval(0, 255))
	wantIval(t, "widen lo", ivWiden(mkIval(5, 10), mkIval(4, 10), bound), mkIval(0, 10))
	wantIval(t, "widen stable", ivWiden(prev, prev, bound), prev)
	if !ivWiden(prev, decl(mkIval(0, 11)), bound).declared {
		t.Fatalf("widen dropped declared flag")
	}
}

func TestTypeIval(t *testing.T) {
	cases := []struct {
		kind   types.BasicKind
		lo, hi string
	}{
		{types.Uint8, "0", "255"},
		{types.Uint16, "0", "65535"},
		{types.Uint32, "0", "4294967295"},
		{types.Uint64, "0", "18446744073709551615"},
		{types.Uint, "0", "18446744073709551615"},
		{types.Int8, "-128", "127"},
		{types.Int16, "-32768", "32767"},
		{types.Int32, "-2147483648", "2147483647"},
		{types.Int64, "-9223372036854775808", "9223372036854775807"},
		{types.Int, "-9223372036854775808", "9223372036854775807"},
	}
	for _, c := range cases {
		v, ok := typeIval(types.Typ[c.kind])
		if !ok {
			t.Fatalf("typeIval(%v) not ok", types.Typ[c.kind])
		}
		if v.lo.String() != c.lo || v.hi.String() != c.hi {
			t.Fatalf("typeIval(%v) = %v, want [%s, %s]", types.Typ[c.kind], v, c.lo, c.hi)
		}
	}
	if _, ok := typeIval(types.Typ[types.Float64]); ok {
		t.Fatalf("typeIval accepted float64")
	}
	if _, ok := typeIval(types.Typ[types.String]); ok {
		t.Fatalf("typeIval accepted string")
	}
}

func TestIvalArith(t *testing.T) {
	wantIval(t, "add", ivAdd(mkIval(1, 5), mkIval(10, 20)), mkIval(11, 25))
	wantIval(t, "sub", ivSub(mkIval(1, 5), mkIval(10, 20)), mkIval(-19, -5))

	// Multiplication takes the extreme of all four corner products:
	// [-2,3] * [-5,7] has corners 10, -14, -15, 21.
	wantIval(t, "mul signed", ivMul(mkIval(-2, 3), mkIval(-5, 7)), mkIval(-15, 21))
	wantIval(t, "mul unsigned", ivMul(mkIval(2, 4), mkIval(3, 5)), mkIval(6, 20))
	if !ivMul(decl(mkIval(1, 2)), mkIval(1, 2)).declared {
		t.Fatalf("mul dropped declared flag")
	}
}

func TestIvalQuo(t *testing.T) {
	// Straightforward positive division.
	q, ok := ivQuo(mkIval(10, 100), mkIval(2, 5))
	if !ok {
		t.Fatalf("quo not ok")
	}
	wantIval(t, "quo", q, mkIval(2, 50))

	// A divisor range straddling zero must include the ±1 corners —
	// the extreme quotients — while excluding zero itself.
	q, ok = ivQuo(mkIval(10, 100), mkIval(-3, 3))
	if !ok {
		t.Fatalf("straddling quo not ok")
	}
	wantIval(t, "quo straddle", q, mkIval(-100, 100))

	// A divisor that is exactly zero on every path panics at runtime;
	// the transfer function reports no result.
	if _, ok := ivQuo(mkIval(1, 10), mkIval(0, 0)); ok {
		t.Fatalf("division by the zero singleton reported a result")
	}
}

func TestShiftClamp(t *testing.T) {
	if got := clampShiftAmount(big.NewInt(-4)); got != 0 {
		t.Fatalf("clampShiftAmount(-4) = %d, want 0", got)
	}
	if got := clampShiftAmount(big.NewInt(63)); got != 63 {
		t.Fatalf("clampShiftAmount(63) = %d, want 63", got)
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 100)
	if got := clampShiftAmount(huge); got != shiftCap {
		t.Fatalf("clampShiftAmount(2^100) = %d, want %d", got, shiftCap)
	}

	wantIval(t, "shl", ivShl(mkIval(1, 1), mkIval(0, 6)), mkIval(1, 64))

	// A hostile declared count caps at shiftCap rather than making
	// big.Int allocate a gigabit number; the result still compares as
	// overflow against any machine type.
	wide := ivShl(mkIval(1, 1), mkIval(0, 1<<40))
	capBound := new(big.Int).Lsh(big.NewInt(1), shiftCap)
	if wide.hi.Cmp(capBound) != 0 {
		t.Fatalf("capped shl hi = %v, want 2^%d", wide.hi, shiftCap)
	}
}

func TestIvalBitOps(t *testing.T) {
	and, ok := ivAnd(mkIval(0, 100), mkIval(0, 37))
	if !ok {
		t.Fatalf("AND not ok")
	}
	wantIval(t, "and", and, mkIval(0, 37))

	// Negative operands fall back to the type range.
	if _, ok := ivAnd(mkIval(-1, 5), mkIval(0, 37)); ok {
		t.Fatalf("AND accepted a possibly-negative operand")
	}
	if and, _ := ivAnd(decl(mkIval(0, 100)), mkIval(0, 37)); !and.declared {
		t.Fatalf("AND dropped declared flag")
	}
}

func TestRefineLeft(t *testing.T) {
	x := mkIval(0, 100)
	y := mkIval(10, 20)

	wantIval(t, "x < y", refineLeft(token.LSS, x, y), mkIval(0, 19))
	wantIval(t, "x <= y", refineLeft(token.LEQ, x, y), mkIval(0, 20))
	wantIval(t, "x > y", refineLeft(token.GTR, x, y), mkIval(11, 100))
	wantIval(t, "x >= y", refineLeft(token.GEQ, x, y), mkIval(10, 100))
	wantIval(t, "x == y", refineLeft(token.EQL, x, y), mkIval(10, 20))

	// Disequality only trims singleton endpoints.
	wantIval(t, "x != 0", refineLeft(token.NEQ, x, mkIval(0, 0)), mkIval(1, 100))
	wantIval(t, "x != 100", refineLeft(token.NEQ, x, mkIval(100, 100)), mkIval(0, 99))
	wantIval(t, "x != interior", refineLeft(token.NEQ, x, mkIval(50, 50)), x)
	wantIval(t, "x != range", refineLeft(token.NEQ, x, y), x)

	// An impossible comparison refines to bottom: the path is dead.
	if r := refineLeft(token.GTR, mkIval(0, 5), mkIval(10, 10)); !r.isBottom() {
		t.Fatalf("impossible refinement = %v, want bottom", r)
	}

	// Refinement never widens.
	if r := refineLeft(token.LEQ, mkIval(0, 5), mkIval(0, 1000)); !mkIval(0, 5).contains(r) {
		t.Fatalf("refinement widened: %v", r)
	}
}

func TestCmpHelpers(t *testing.T) {
	negate := map[token.Token]token.Token{
		token.LSS: token.GEQ, token.GEQ: token.LSS,
		token.LEQ: token.GTR, token.GTR: token.LEQ,
		token.EQL: token.NEQ, token.NEQ: token.EQL,
	}
	for op, want := range negate {
		if got := negateCmp(op); got != want {
			t.Fatalf("negateCmp(%v) = %v, want %v", op, got, want)
		}
	}
}

// TestEvalOperators drives the evaluator over every integer operator on
// uint8 operands x ∈ [1,10] (declared) and y ∈ [2,3]. The operators with
// a transfer function are exact until the result escapes the type; the
// rest give the type's range with the declared flag kept, so a site that
// reads them is still checked against the full range, never skipped.
func TestEvalOperators(t *testing.T) {
	const src = "package p\n\nvar x, y uint8\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Files: []*ast.File{file}, Info: &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}}
	if pkg.Types, err = new(types.Config).Check("p", fset, pkg.Files, pkg.Info); err != nil {
		t.Fatal(err)
	}
	u8 := pkg.Types.Scope().Lookup("x").Type()
	full, _ := typeIval(u8)
	env := ivEnv{
		"x": {iv: decl(mkIval(1, 10)), def: full, t: u8},
		"y": {iv: mkIval(2, 3), def: full, t: u8},
	}
	cx := &ivCtx{ranges: map[*types.Var]ival{}}
	for _, tc := range []struct {
		name, expr string
		want       ival
	}{
		{"add", "x + y", decl(mkIval(3, 13))},
		{"sub wraps", "x - y", decl(full)},
		{"mul", "x * y", decl(mkIval(2, 30))},
		{"quo", "x / y", decl(mkIval(0, 5))},
		{"shl", "x << y", decl(mkIval(4, 80))},
		{"and", "x & y", decl(mkIval(0, 3))},
		{"rem", "x % y", decl(full)},
		{"shr", "x >> y", decl(full)},
		{"or", "x | y", decl(full)},
		{"xor", "x ^ y", decl(full)},
		{"andnot", "x &^ y", decl(full)},
		{"rem undeclared", "y % y", full},
		{"plus", "+x", decl(mkIval(1, 10))},
		{"neg", "-x", decl(full)},
		{"not", "^x", decl(full)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := parser.ParseExpr(tc.expr)
			if err != nil {
				t.Fatal(err)
			}
			if err := types.CheckExpr(fset, pkg.Types, token.NoPos, e, pkg.Info); err != nil {
				t.Fatal(err)
			}
			got, ok := cx.eval(pkg, env, e)
			if !ok {
				t.Fatalf("%s: no interval", tc.expr)
			}
			wantIval(t, tc.expr, got, tc.want)
		})
	}
}
