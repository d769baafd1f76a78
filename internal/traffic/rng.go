package traffic

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64) used
// for workload generation. It is self-contained so that experiment results
// are bit-reproducible across Go releases, unlike math/rand's unexported
// default source ordering.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// splitMixGamma is SplitMix64's state increment.
const splitMixGamma = 0x9e3779b97f4a7c15

// splitMix is SplitMix64's output function over an already-advanced state.
func splitMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += splitMixGamma
	return splitMix(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n is not positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("traffic: Intn bound must be positive")
	}
	return int(r.Uint64() % uint64(n))
}

// odds is a Bernoulli success probability in the generator's own units:
// a draw succeeds when the top 53 bits of the next output are below it.
type odds uint64

// oddsOf returns ceil(p·2^53). Float64 is k/2^53 for the integer
// k = Uint64()>>11, both the product and the quotient are exact in
// float64, and an integer is below a real exactly when it is below its
// ceiling — so k < oddsOf(p) is Float64() < p for every p, with p above 1
// clamped to "always" and anything not above 0 (NaN included) "never".
func oddsOf(p float64) odds {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return odds(math.Ceil(p * (1 << 53)))
}

// draw performs one Bernoulli draw.
func (r *RNG) draw(o odds) bool { return r.Uint64()>>11 < uint64(o) }

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.draw(oddsOf(p)) }

// failuresBefore draws until the first success and returns how many draws
// failed before it: the draws, their order and the final state are those
// of calling draw in a loop, but the state lives in a register across the
// scan instead of going through r once per draw. o must be nonzero, or no
// draw ever succeeds.
//
//ssvc:hotpath
func (r *RNG) failuresBefore(o odds) uint64 {
	s := r.state
	n := uint64(0)
	for {
		s += splitMixGamma
		if splitMix(s)>>11 < uint64(o) {
			break
		}
		n++
	}
	r.state = s
	return n
}
