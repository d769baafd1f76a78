// Package countersafebad is a lint fixture for the countersafety
// analyzer: every construct it must flag carries a trailing
// want-marker, and every guarded shape it must accept is marker-free.
// The package never builds into the module (testdata is skipped); it
// only has to type-check under the analyzer's loader.
package countersafebad

import "math"

type counter uint64

// Unguarded is the base case: nothing proves a >= b.
func Unguarded(a, b uint64) uint64 {
	return a - b // want:countersafety
}

// Guarded subtracts directly in the then block of its guard.
func Guarded(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return 0
}

// GuardedFlipped spells the same guard with the operands swapped.
func GuardedFlipped(a, b uint64) uint64 {
	if b <= a {
		return a - b
	}
	return 0
}

// Inverted guards the wrong operand order.
func Inverted(a, b uint64) uint64 {
	if a >= b {
		return b - a // want:countersafety
	}
	return 0
}

// EarlyReturn dominates by eliminating the wrapping path — the shape
// of noc.SatSub.
func EarlyReturn(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// ElseBranch: the if before the second subtraction returns when
// a >= b, so it is an early exit for b - a.
func ElseBranch(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return b - a
}

// KilledGuard reassigns the minuend after establishing the guard.
func KilledGuard(a, b uint64) uint64 {
	if a >= b {
		a = b / 2
		return a - b // want:countersafety
	}
	return 0
}

// AndGuard: a conjunction is no guard form; nest the ifs instead.
func AndGuard(a, b, c uint64) uint64 {
	if a >= b && a >= c {
		return (a - b) + (a - c) // want:countersafety countersafety
	}
	return 0
}

// OrGuard: a disjunction proves neither disjunct on its true edge.
func OrGuard(a, b, c uint64) uint64 {
	if a >= b || a >= c {
		return a - b // want:countersafety
	}
	return 0
}

// NotGuard: a negated comparison is no guard form.
func NotGuard(a, b uint64) uint64 {
	if !(a < b) {
		return a - b // want:countersafety
	}
	return 0
}

// LoopGuard: rule 1 accepts four shapes and no others, however sound
// the guard: a loop condition guards only the y = 1 forms (for x != 0,
// for x > 0).
func LoopGuard(a, b uint64) uint64 {
	var s uint64
	for a >= b {
		s += a - b // want:countersafety
		a /= 2
	}
	return s
}

// PostKill: the increment in the body invalidates the pre-loop guard
// across the back edge, so no iteration after the first is proven.
func PostKill(a, b uint64) uint64 {
	var s uint64
	if a >= b {
		for i := 0; i < 3; i++ {
			s += a - b // want:countersafety
			a++
		}
	}
	return s
}

// SubAssign: compound subtraction is the same hazard.
func SubAssign(a, b uint64) uint64 {
	a -= b // want:countersafety
	return a
}

// SubAssignGuarded is fine.
func SubAssignGuarded(a, b uint64) uint64 {
	if a >= b {
		a -= b
	}
	return a
}

// SwitchGuard: a tagless switch case is no guard form, nor is the
// default arm the failed cases lead to.
func SwitchGuard(a, b uint64) uint64 {
	switch {
	case a >= b:
		return a - b // want:countersafety
	default:
		return b - a // want:countersafety
	}
}

// TypeSwitchKeeps: an early exit covers only the statement right
// after it, not the arms of the switch that statement is.
func TypeSwitchKeeps(v any, a, b uint64) uint64 {
	if a < b {
		return 0
	}
	switch v.(type) {
	case int:
		return a - b // want:countersafety
	default:
		return a - b // want:countersafety
	}
}

// Decrement: a > 0 proves a >= 1.
func Decrement(a uint64) uint64 {
	if a > 0 {
		return a - 1
	}
	return 0
}

// DecrementByTwo: a > 0 only proves a >= 1.
func DecrementByTwo(a uint64) uint64 {
	if a > 0 {
		return a - 2 // want:countersafety
	}
	return 0
}

// Mask: the 1<<k - 1 idiom never wraps when the shift is meaningful.
func Mask(k uint) uint64 {
	return 1<<k - 1
}

// FromMax: it cannot wrap, but it is no guard form; ^x says the same.
func FromMax(x uint64) uint64 {
	return math.MaxUint64 - x // want:countersafety
}

// Signed subtraction is int arithmetic, not counter arithmetic.
func Signed(n int) int {
	return n - 5
}

// NamedUnguarded: named unsigned types are counters too.
func NamedUnguarded(a, b counter) counter {
	return a - b // want:countersafety
}

// GenSub: a type-parameter counter is still unsigned.
func GenSub[T ~uint64](a, b T) T {
	return a - b // want:countersafety
}

// GenSatSub guards like noc.SatSub and passes.
func GenSatSub[T ~uint64](a, b T) T {
	if a < b {
		return 0
	}
	return a - b
}

// AddressKill: handing &a to a callee invalidates the guard.
func AddressKill(a, b uint64) uint64 {
	if a >= b {
		mutate(&a)
		return a - b // want:countersafety
	}
	return 0
}

func mutate(p *uint64) { *p = 0 }

// ClosureNoLeak: no guard outside a literal covers its body, and a
// guard of its own works as usual.
func ClosureNoLeak(a, b uint64) func() uint64 {
	if a >= b {
		return func() uint64 {
			return a - b // want:countersafety
		}
	}
	return func() uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
}

// BitmaskLoop: the canonical set-bit iteration. The loop condition
// m != 0 on an unsigned m proves m >= 1 on every iteration, so
// clearing the lowest set bit with m &= m - 1 cannot wrap. This is the
// word-parallel engines' hot idiom (masked input/output walks).
func BitmaskLoop(m uint64) int {
	n := 0
	for m != 0 {
		n++
		m &= m - 1
	}
	return n
}

// NonzeroEarlyReturn: a refuted == 0 is no early exit (x < y, x <= y).
func NonzeroEarlyReturn(m uint64) uint64 {
	if m == 0 {
		return 0
	}
	return m - 1 // want:countersafety
}

// NonzeroMirror: the zero literal on the left.
func NonzeroMirror(m uint64) uint64 {
	if 0 != m {
		return m - 1
	}
	return 0
}

// NonzeroTooWeak: m != 0 proves only m >= 1; subtracting 2 still wraps
// at m == 1.
func NonzeroTooWeak(m uint64) uint64 {
	for m != 0 {
		m = m - 2 // want:countersafety
	}
	return m
}

// NonzeroKilled: reassigning m between the test and the subtraction
// leaves the guard behind.
func NonzeroKilled(m, x uint64) uint64 {
	if m != 0 {
		m = x
		return m - 1 // want:countersafety
	}
	return 0
}

// Narrow truncates a 64-bit counter (rule 2).
func Narrow(x uint64) uint32 {
	return uint32(x) // want:countersafety
}

// NarrowConst: constant conversions are compiler-checked.
func NarrowConst() uint32 {
	return uint32(7)
}

// Widen is fine, as is a same-width signed reinterpretation.
func Widen(x uint32) (uint64, int64) {
	return uint64(x), int64(uint64(x))
}

// OverShift: shifting a 64-bit value by 64 always yields zero (rule 3).
func OverShift(x uint64) uint64 {
	return x << 64 // want:countersafety
}

// OverShift32: the width comes from the operand's type.
func OverShift32(x uint32) uint32 {
	return x >> 32 // want:countersafety
}

// InRangeShift is fine.
func InRangeShift(x uint64) uint64 {
	return x << 63
}

// DeadCompare: an unsigned difference is never negative (rule 4).
func DeadCompare(a, b uint64) bool {
	if a < b {
		return false
	}
	return a-b < 0 // want:countersafety
}

// DeadGE: an unsigned value is always >= 0.
func DeadGE(x uint64) bool {
	return x >= 0 // want:countersafety
}

// DeadMirror: the same comparison with the zero on the left.
func DeadMirror(x uint64) bool {
	return 0 > x // want:countersafety
}

type quanta struct {
	aux     []uint64
	quantum uint64
}

// IndexGuard: an index expression guards like a name (core/ssvc.go's
// auxVC decrement).
func IndexGuard(s *quanta) {
	for i := range s.aux {
		if s.aux[i] > s.quantum {
			s.aux[i] -= s.quantum
		} else {
			s.aux[i] = 0
		}
	}
}

// IndexGuardDeleted: the same decrement without its guard.
func IndexGuardDeleted(s *quanta) {
	for i := range s.aux {
		s.aux[i] -= s.quantum // want:countersafety
	}
}

// IndexMoved: moving the index moves the element the guard compared.
func IndexMoved(s *quanta, i int) {
	if s.aux[i] > s.quantum {
		i++
		s.aux[i] -= s.quantum // want:countersafety
	}
}

// BitmaskBodyStmt: a statement that only reads m may come before the
// decrement (switchsim's tryChain walk).
func BitmaskBodyStmt(words []uint64) int {
	n := 0
	for w := range words {
		m := words[w]
		for m != 0 {
			i := w<<6 + lowBit(m)
			m &= m - 1
			n += i
		}
	}
	return n
}

// lowBit stands in for bits.TrailingZeros64: any read of m will do.
func lowBit(m uint64) int { return int(m & -m) }

// BitmaskBodyKill: assigning m before the decrement leaves the loop
// condition behind.
func BitmaskBodyKill(m uint64) int {
	n := 0
	for m != 0 {
		m >>= 1
		m &= m - 1 // want:countersafety
		n++
	}
	return n
}

// BitmaskPost: the walk's decrement as the loop's post statement.
func BitmaskPost(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// BitmaskPostKill: a body that assigns m runs between the condition
// and the post statement.
func BitmaskPostKill(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 { // want:countersafety
		m >>= 1
		n++
	}
	return n
}

// EarlyContinue: a continue is an early exit too.
func EarlyContinue(xs []uint64, y uint64) uint64 {
	var s uint64
	for _, x := range xs {
		if x < y {
			continue
		}
		s += x - y
	}
	return s
}

// EarlyExitNotAdjacent: an early exit covers only the statement right
// after it.
func EarlyExitNotAdjacent(xs []uint64, y uint64) uint64 {
	var s uint64
	for _, x := range xs {
		if x < y {
			continue
		}
		s++
		s += x - y // want:countersafety
	}
	return s
}

// EarlyNoExit: an if whose body does not leave is no early exit.
func EarlyNoExit(x, y uint64) uint64 {
	if x < y {
		y = x
	}
	return x - y // want:countersafety
}

func next() uint64 { return 3 }

// CallOperand: a call may answer differently each time, so a guard on
// one call covers no other.
func CallOperand() uint64 {
	if next() != 0 {
		return next() - 1 // want:countersafety
	}
	return 0
}

// GuardOutsideLiteral: a literal's body is its own, even one called at
// once.
func GuardOutsideLiteral(a, b uint64) uint64 {
	if a >= b {
		return func() uint64 {
			return a - b // want:countersafety
		}()
	}
	return 0
}

// HeaderInitKill: an if's init runs between the guard and a
// subtraction in its condition.
func HeaderInitKill(a, b uint64) bool {
	if a >= b {
		if a = 0; a-b > 3 { // want:countersafety
			return true
		}
	}
	return false
}
