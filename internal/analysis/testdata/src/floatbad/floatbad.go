// Package floatbad is a lint fixture for the floatconv rule: every
// float-to-integer conversion it must flag carries a trailing
// want-marker, and every shape it must leave alone — constant
// conversions, float-to-float and integer-to-integer conversions, and
// the conversions inside a //ssvc:barrier clamp — is marker-free.
package floatbad

// VTime is a named integer type, like noc.VTime.
type VTime uint64

// FromFloat converts a float outside any barrier; out-of-range values
// convert platform-dependently.
func FromFloat(x float64) uint64 {
	return uint64(x) // want:floatconv
}

// Named converts into a named integer type.
func Named(x float32) VTime {
	return VTime(x) // want:floatconv
}

// Signed converts into a signed integer, through parentheses.
func Signed(x float64) int {
	return int((x)) // want:floatconv
}

// Deferred converts inside a function literal, which runs outside any
// clamp.
func Deferred(x float64) func() int64 {
	return func() int64 { return int64(x) } // want:floatconv
}

// Hook is a package-level function value, outside any declaration.
var Hook = func(x float64) uint32 { return uint32(x) } // want:floatconv

// Exact converts constants and non-floats only: the compiler checks a
// constant conversion, and the others are not float crossings.
func Exact(n int, x float64) (uint64, float32, uint8) {
	const half = 0.5
	return uint64(4 * half), float32(x), uint8(n)
}

// Clamp is the sanctioned float crossing: the conversion lives inside
// a //ssvc:barrier helper that pins the value first, and so does the
// conversion in its function literal.
//
//ssvc:barrier
func Clamp(x float64, hi uint64) uint64 {
	conv := func(v float64) uint64 { return uint64(v) }
	if !(x > 0) {
		return 0
	}
	if x >= float64(hi) {
		return hi
	}
	return conv(x)
}
