package noc

import "math/bits"

// This file defines the simulator's two time domains as distinct types,
// so the compiler — and the ssvc-lint units analyzer layered on top —
// keeps them from being mixed silently:
//
//   - Cycle is the real-time clock domain: the simulated cycle counter,
//     packet timestamps, stall windows, backoff deadlines.
//   - VTime is the virtual-clock domain: auxVC counters, Vtick
//     increments, Virtual Clock packet stamps, leaky-bucket clocks.
//
// The paper's central hazard (§3.1) is exactly at the seam between the
// two: Virtual Clock step 1, auxVC <- max(auxVC, real time), reads a
// real-time value into the virtual domain, and every finite-counter
// policy (Subtract/Halve/Reset) manipulates virtual values against
// real-time epochs. Each legal crossing goes through one of the named
// conversion helpers below, so `grep VTimeOfCycle` lists every place a
// real-time value enters the virtual domain. Direct conversions such as
// uint64(now) or VTime(now) outside this file are rejected by the units
// analyzer (see internal/analysis and DESIGN.md "Invariants").
//
// The saturating helpers (SatSub, SatAdd, SatMul, SatShl) are the
// sanctioned way to do counter arithmetic that could wrap: the
// countersafety analyzer treats them as safe sinks, while an unguarded
// `a - b` on unsigned operands is a finding. Mul32, CeilDiv and Pow2 are
// the fixed-width products, round-ups and register widths whose operand
// types or bodies keep them from wrapping at all.

// Cycle is a point in (or span of) simulated real time, measured in
// cycles of the switch clock. The zero value is cycle 0.
type Cycle uint64

// Uint returns the raw cycle count, for statistics aggregation and
// rendering. This is the only sanctioned Cycle -> uint64 conversion.
func (c Cycle) Uint() uint64 { return uint64(c) }

// VTime is a point in (or span of) virtual-clock time: the domain of
// auxVC counters, Vticks, and Virtual Clock stamps. Virtual time is
// cycle-granular but advances per grant, not per cycle.
type VTime uint64

// Uint returns the raw virtual-clock value, for statistics aggregation
// and rendering. This is the only sanctioned VTime -> uint64 conversion.
func (v VTime) Uint() uint64 { return uint64(v) }

// CycleOf enters the real-time domain from a raw count (configuration
// boundaries: flag parsing, option structs).
func CycleOf(n uint64) Cycle { return Cycle(n) }

// VTimeOf enters the virtual-clock domain from a raw count
// (configuration boundaries: derived Vticks, counter widths).
func VTimeOf(n uint64) VTime { return VTime(n) }

// VTimeOfCycle reads a real-time value into the virtual-clock domain —
// Virtual Clock step 1, auxVC <- max(auxVC, real time), and the leaky
// bucket's comparison of its virtual clock against real time (§3.4).
func VTimeOfCycle(c Cycle) VTime { return VTime(c) }

// CycleOfVTime reads a virtual-clock span back into real time — the
// real-time clock epoch advancing by one auxVC quantum (§3.1).
func CycleOfVTime(v VTime) Cycle { return Cycle(v) }

// Counter constrains the saturating helpers to the simulator's unsigned
// counter types: raw uint64 and the two time domains.
type Counter interface{ ~uint64 }

// SatSub returns a-b, saturating at zero instead of wrapping. It is the
// shared guard for counter subtraction near the zero boundary — the bug
// class behind the glbound burst-scheduling underflow fixed in PR 1 —
// and the countersafety analyzer recognizes it as a safe sink.
func SatSub[T Counter](a, b T) T {
	if a < b {
		return 0
	}
	return a - b
}

// SatAdd returns a+b, saturating at the maximum value instead of
// wrapping. A wrapped addition under-reports a counter and, in the
// SSVC, would let an auxVC slip past its saturation policy undetected.
func SatAdd[T Counter](a, b T) T {
	s := a + b
	if s < a {
		return ^T(0)
	}
	return s
}

// SatMul returns a*b, saturating at the maximum value instead of
// wrapping: the product is taken in 128 bits and a non-zero high word
// is refused. A wrapped product would turn a huge allowance (a burst of
// packets times a huge Vtick) into a small one.
func SatMul[T Counter](a, b T) T {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 {
		return ^T(0)
	}
	return T(lo)
}

// Mul32 returns the exact product of two 32-bit values, which needs at
// most 64 bits: the operand types are the proof that it cannot wrap.
// The §3.3 cost product Frame·L is taken here, so a length that is not
// bounded to 32 bits does not compile.
func Mul32(a, b uint32) uint64 { return uint64(a) * uint64(b) }

// CeilDiv returns n/d rounded up, for d > 0. The round-up cannot wrap
// for any n: a remainder means d >= 2, so n/d is at most n/2.
func CeilDiv(n, d uint64) uint64 {
	q := n / d
	if n%d != 0 {
		q++
	}
	return q
}

// Pow2 returns 2^w, the weight of bit w of a register: the counter
// widths, quanta and thermometer level counts of the SSVC. A width is a
// uint8, and one of 64 or more saturates at the maximum instead of
// shifting out to 0.
func Pow2(w uint8) uint64 { return SatShl(uint64(1), uint(w)) }

// SatShl returns v<<k, saturating at the maximum value when the shift
// overflows (k >= 64, or set bits shifted out). It replaces the
// hand-guarded exponential backoff arithmetic in internal/faults.
func SatShl[T Counter](v T, k uint) T {
	if v == 0 {
		return 0
	}
	if k >= 64 || v > ^T(0)>>k {
		return ^T(0)
	}
	return v << k
}

// ClampUint64 converts a float to an unsigned counter value, pinning the
// result into [0, hi]. A bare uint64(f) is undefined for NaN, negative,
// or out-of-range inputs (the conversion the control plane used to do on
// protocol-derived shares); this is the sanctioned crossing from float
// bandwidth fractions into the fixed-point Frame domain.
//
//ssvc:barrier
func ClampUint64(f float64, hi uint64) uint64 {
	if !(f > 0) { // accepting form: NaN lands here too
		return 0
	}
	if f >= float64(hi) {
		return hi
	}
	return uint64(f)
}
