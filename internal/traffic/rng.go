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
	z = mixed(z)
	return z ^ (z >> 31)
}

// mixed is splitMix before its final xorshift: both multiplies, whose
// result has the same top 31 bits as the output (z>>31 is zero there).
func mixed(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return (z ^ (z >> 27)) * 0x94d049bb133111eb
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

// laneOdds is where the Go scan stops scanning in lanes: from p = 1/4
// up, the first draw usually succeeds and the second lane is wasted work.
// Below it, cut (see scan) stays under 2^63 and cannot wrap.
const laneOdds = 1 << 51

// kernelOdds is where failuresBefore hands the scan to the AVX-512
// kernel, where the CPU has one. A kernel call pays about a dozen Go
// draws before its first block resolves (two multiplies' latency, the
// mask scan, the exit branch): the two paths are level near p = 1/8, the
// Go scan is ahead from 1/4 up, and the kernel from 1/16 down
// (BenchmarkBernoulliNextArrival, path=go against path=kernel).
const kernelOdds = 1 << 49

// failuresBefore draws until the first success and returns how many draws
// failed before it: the draws, their order and the final state are those
// of calling draw in a loop, but the state lives in registers across the
// scan instead of going through r once per draw. o must be nonzero, or no
// draw ever succeeds.
//
// Below kernelOdds, on a CPU with AVX-512F and AVX-512DQ (haveKernel,
// read once at init), the scan is scan32 (scan_amd64.s): 32 draws an
// iteration in four ZMM registers, the lowest successful lane winning.
// Everywhere else it is the Go scan, the portable path and the kernel's
// reference (DESIGN.md "Bernoulli scan kernel"). failuresBefore is small
// enough to inline, so a generator pays one call for either path.
func (r *RNG) failuresBefore(o odds) uint64 {
	return r.scan(o, haveKernel && o < kernelOdds)
}

// scan is failuresBefore on the path kernel names, for any o: scan32, or
// the Go scan. Below laneOdds the Go scan advances two draws a step, s+γ
// and s+2γ, whose multiplies are independent and overlap; two lanes fit
// in registers, more spill. A draw succeeds when its output is below
// lim = o<<11. The output's top 31 bits are those of mixed, so mixed
// below cut, lim rounded up to a multiple of 2^33, is necessary, and only
// a lane past that one compare pays for the exact test. Lanes are
// resolved in order, so the first success wins.
//
//ssvc:hotpath
func (r *RNG) scan(o odds, kernel bool) uint64 {
	if kernel {
		n, s := scan32(r.state, uint64(o)<<11)
		r.state = s
		return n
	}
	s := r.state
	n := uint64(0)
	if o >= laneOdds {
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
	lim := uint64(o) << 11
	cut := (lim + (1<<33 - 1)) >> 33 << 33
	for {
		s1 := s + splitMixGamma
		s2 := s1 + splitMixGamma
		z1, z2 := mixed(s1), mixed(s2)
		if z1 < cut && z1^(z1>>31) < lim {
			r.state = s1
			return n
		}
		if z2 < cut && z2^(z2>>31) < lim {
			r.state = s2
			return n + 1
		}
		s = s2
		n += 2
	}
}
