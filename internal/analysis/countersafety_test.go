package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// TestTypeIval pins the integer ranges rule 1's interval bounds start
// from.
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
			t.Fatalf("typeIval(%v) = [%s, %s], want [%s, %s]", types.Typ[c.kind], v.lo, v.hi, c.lo, c.hi)
		}
	}
	if _, ok := typeIval(types.Typ[types.Float64]); ok {
		t.Fatalf("typeIval accepted float64")
	}
	if _, ok := typeIval(types.Typ[types.String]); ok {
		t.Fatalf("typeIval accepted string")
	}
}

// TestCmpHelpers pins the negation the guard facts take on a false edge.
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
