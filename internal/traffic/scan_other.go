//go:build !amd64

package traffic

// haveKernel is false off amd64: the Go scan is the only one.
const haveKernel = false

// scan32 exists off amd64 only so that RNG.scan compiles; haveKernel
// keeps failuresBefore from asking for it. Kept out of line, its panic
// stays out of the hot path's escape analysis.
//
//go:noinline
func scan32(s, lim uint64) (n, state uint64) {
	panic("traffic: the Bernoulli scan kernel is amd64 only")
}
