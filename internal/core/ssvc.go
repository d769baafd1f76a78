package core

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// CounterPolicy selects how the finite auxVC counters are kept from
// saturating (§3.1 "Finite Counters and Real Time Clock" and "Improving
// Latency Fairness").
type CounterPolicy uint8

const (
	// SubtractRealTime keeps a real-time clock counter of the same
	// granularity as the auxVC least significant bits; each time it
	// saturates, one is subtracted from every counter's most significant
	// bits and all thermometer codes shift down a position. This is the
	// baseline hardware adaptation of Virtual Clock step 1:
	// auxVC <- max(auxVC, realtime) - realtime.
	SubtractRealTime CounterPolicy = iota
	// Halve divides every auxVC register by two whenever any of them
	// saturates (shift down one position, copy the top half of the
	// thermometer code to the bottom half). Compressing the value range
	// creates more thermometer-code ties, which LRG resolves fairly,
	// decoupling latency from the reserved rate.
	Halve
	// Reset zeroes every auxVC register (and thermometer code) whenever
	// any of them saturates. The paper found this gives the least
	// latency variance across bandwidth allocations.
	Reset
)

// String returns the paper's name for the policy.
func (p CounterPolicy) String() string {
	switch p {
	case SubtractRealTime:
		return "SubtractRealClock"
	case Halve:
		return "DivideBy2"
	case Reset:
		return "Reset"
	}
	return fmt.Sprintf("CounterPolicy(%d)", uint8(p))
}

// MaxSigBits is the widest thermometer code Validate accepts: 2^16
// priority levels, each a bitplane of its own. The widest modelled bus,
// 512 bits at radix 2, has 256 lanes, which is 8 bits; the experiments
// use 1-6. The cap also keeps 1<<SigBits inside a 32-bit int.
const MaxSigBits = 16

// Config parameterises one SSVC arbiter (one output channel). Validate
// bounds every integer field.
type Config struct {
	// Radix is the number of input ports.
	Radix int
	// CounterBits is the total auxVC counter width. Table 1 uses 3+8
	// bits; Figure 4 uses 4 significant bits over a 12-bit counter.
	CounterBits int
	// SigBits is the number of auxVC most significant bits mapped to the
	// thermometer code: the coarse comparison distinguishes 2^SigBits
	// priority levels, one per GB lane.
	SigBits int
	// Policy is the finite-counter management method.
	Policy CounterPolicy
	// Vticks[i] is input i's virtual clock increment in virtual-clock
	// cycles per packet (FlowSpec.Vtick) for this output. An input with
	// Vtick 0 has no GB reservation; its GB requests are demoted to
	// best-effort priority.
	Vticks []VTime

	// EnableGL reserves the guaranteed-latency lane. GLVtick is the
	// cycle budget per GL packet implied by the small fraction of output
	// bandwidth reserved for the class (shared among all inputs), and
	// GLBurst is the number of GL packets that may be serviced
	// back-to-back before the leaky-bucket policing defers further GL
	// traffic until the real-time clock catches up (§3.4: "safeguards
	// ... to prevent its abuse"). GLVtick 0 disables policing.
	EnableGL bool
	GLVtick  VTime
	GLBurst  int
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Radix < 2 || c.Radix > 4096 {
		return fmt.Errorf("core: radix %d outside [2,4096]", c.Radix)
	}
	if c.CounterBits < 2 || c.CounterBits > 32 {
		return fmt.Errorf("core: counter width %d outside [2,32]", c.CounterBits)
	}
	if c.SigBits < 1 || c.SigBits >= c.CounterBits || c.SigBits > MaxSigBits {
		return fmt.Errorf("core: %d significant bits must lie in [1,%d)", c.SigBits, min(c.CounterBits, MaxSigBits+1))
	}
	if len(c.Vticks) != c.Radix {
		return fmt.Errorf("core: got %d vticks for radix %d", len(c.Vticks), c.Radix)
	}
	if c.GLBurst < 0 || c.GLBurst > 1<<20 {
		return fmt.Errorf("core: GL burst %d outside [0,%d]", c.GLBurst, 1<<20)
	}
	if c.EnableGL && c.GLVtick > 0 {
		if c.GLBurst < 1 {
			return fmt.Errorf("core: GL policing needs a burst allowance of at least 1 packet, got %d", c.GLBurst)
		}
		return CheckGLBucket(c.GLVtick, c.GLBurst)
	}
	return nil
}

// CheckGLBucket refuses a GL leaky bucket whose clock can saturate within
// one burst. From an empty bucket at cycle 0, k back-to-back grants move
// the clock to k·vtick (Granted), and glEligible passes the next while
// k·vtick <= (burst-1)·vtick: a burst of burst grants, which leaves the
// clock at burst·vtick. Below 2^64 every sum is exact: the next grant is
// refused and the bucket refills one grant per vtick cycles. At 2^64 the
// clock saturates and refills early, and once (burst-1)·vtick saturates
// too the bucket never refuses again.
func CheckGLBucket(vtick VTime, burst int) error {
	if hi, _ := bits.Mul64(uint64(burst), vtick.Uint()); hi != 0 {
		return fmt.Errorf("core: GL bucket of %d packets at Vtick %d reaches 2^64 within one burst", burst, vtick.Uint())
	}
	return nil
}

// SSVC is the Swizzle Switch Virtual Clock arbiter for a single output
// channel. It implements the full three-class arbitration of §3 in one
// call: guaranteed-latency requests (policed by a leaky bucket) take
// absolute priority, guaranteed-bandwidth requests are compared by the
// coarse thermometer-coded auxVC value with LRG breaking ties, and
// best-effort requests are served by plain LRG when no higher class is
// present.
type SSVC struct {
	cfg     Config
	levels  int   // 2^SigBits thermometer levels
	quantum VTime // value of one auxVC most-significant-bit step
	max     VTime // counter saturation value

	// Input i's auxVC, relative to base, is SatSub(aux[i], sub) (Aux):
	// Tick subtracts a quantum from every counter by adding it to sub,
	// which is exact because max(max(x-a, 0)-b, 0) = max(x-a-b, 0), and
	// fold applies sub to the counters once it passes max.
	aux  []VTime
	sub  VTime // quanta subtracted from every aux since the last fold
	base Cycle // real-time epoch the auxVC values are relative to
	next Cycle // next quantum boundary: base + CycleOfVTime(quantum)
	lrg  *arb.LRGState

	glVC VTime // absolute leaky-bucket clock for the shared GL budget

	saturations uint64 // number of policy events (halve/reset), for tests

	// Bitplane state (see bitplane.go and DESIGN.md "Bitplane
	// arbitration"). Level plane k, lvl[k*words:(k+1)*words] (plane),
	// masks the inputs whose coarse auxVC value is exactly k — the
	// word-wide image of the per-lane thermometer codes — and is
	// maintained incrementally by Granted/Tick/onSaturation. The planes
	// share one allocation, so a wide counter's 2^SigBits levels cost one
	// object, not one each. reserved masks inputs with a nonzero Vtick.
	lvl      []uint64
	words    int // mask words per plane
	reserved []uint64
	allMask  []uint64 // bits 0..Radix-1 set
	glM      []uint64 // Arbitrate scratch: GL requesters
	gbM      []uint64 // Arbitrate scratch: reserved GB requesters
	beM      []uint64 // Arbitrate scratch: BE + unreserved GB requesters
	lvlS     []uint64 // Arbitrate scratch: per-level candidates
	reqIdx   []int32  // Arbitrate scratch: input -> index in reqs; only
	// the winner's entry is read back, and the winner is always one of
	// the current call's inputs, so stale entries are never observed.
}

// Statically ensure SSVC satisfies the switch arbitration contract and
// announces its clock's deadlines.
var (
	_ arb.Arbiter       = (*SSVC)(nil)
	_ arb.TickScheduler = (*SSVC)(nil)
)

// NewSSVC returns an SSVC arbiter. It panics on an invalid configuration;
// use Config.Validate to check first when the configuration is external.
func NewSSVC(cfg Config) *SSVC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.Vticks = append([]VTime(nil), cfg.Vticks...)
	// Validate holds 1 <= SigBits < CounterBits <= 32, so every width
	// below is exact in a uint8 and far below noc.Pow2's 64.
	quantum := noc.VTimeOf(noc.Pow2(uint8(cfg.CounterBits - cfg.SigBits)))
	s := &SSVC{
		cfg:     cfg,
		levels:  int(noc.Pow2(uint8(cfg.SigBits))),
		quantum: quantum,
		max:     noc.VTimeOf(noc.SatSub(noc.Pow2(uint8(cfg.CounterBits)), 1)),
		next:    noc.CycleOfVTime(quantum),
		aux:     make([]VTime, cfg.Radix),
		lrg:     arb.NewLRGState(cfg.Radix),
	}
	words := arb.MaskWords(cfg.Radix)
	s.words = words
	s.lvl = make([]uint64, s.levels*words)
	s.reserved = make([]uint64, words)
	s.allMask = make([]uint64, words)
	s.glM = make([]uint64, words)
	s.gbM = make([]uint64, words)
	s.beM = make([]uint64, words)
	s.lvlS = make([]uint64, words)
	s.reqIdx = make([]int32, cfg.Radix)
	for i := 0; i < cfg.Radix; i++ {
		arb.MaskSet(s.allMask, i)
	}
	copy(s.plane(0), s.allMask) // every auxVC starts at zero: coarse level 0
	s.rebuildReserved()
	return s
}

// Vticks is the Vtick vector a flow set programs toward output out:
// each GB flow's FlowSpec.Vtick at its source, 0 (unreserved) elsewhere.
func Vticks(radix int, specs []noc.FlowSpec, out int) []VTime {
	vt := make([]VTime, radix)
	for _, s := range specs {
		if s.Dst == out && s.Class == noc.GuaranteedBandwidth {
			vt[s.Src] = s.Vtick()
		}
	}
	return vt
}

// FromFlows returns the per-output SSVC constructor for a flow set:
// output out's arbiter is cfg with its Vticks programmed from specs.
func FromFlows(cfg Config, specs []noc.FlowSpec) func(out int) arb.Arbiter {
	return func(out int) arb.Arbiter {
		c := cfg
		c.Vticks = Vticks(cfg.Radix, specs, out)
		return NewSSVC(c)
	}
}

// rebuildReserved re-derives the reserved-input mask from the Vticks.
func (s *SSVC) rebuildReserved() {
	arb.MaskZero(s.reserved)
	for i, vt := range s.cfg.Vticks {
		if vt != 0 {
			arb.MaskSet(s.reserved, i)
		}
	}
}

// Levels returns the number of distinct coarse priority levels (GB lanes
// consumed by the thermometer code).
func (s *SSVC) Levels() int { return s.levels }

// SetVticks replaces the per-input Vtick vector mid-run. This is the
// graceful-degradation hook: when an input fail-stops, the bandwidth its
// flows reserved at this output is redistributed to the surviving GB
// flows (see faults.Redistribute) by installing the re-derived Vticks.
// Accumulated auxVC state and the LRG order are preserved — surviving
// flows keep their earned priority and simply tick at the new rate from
// the next grant on, exactly as the hardware would after an update of
// the reservation table. Any Vtick is a valid register value; only the
// vector's length is checked.
func (s *SSVC) SetVticks(vt []VTime) error {
	if len(vt) != s.cfg.Radix {
		return fmt.Errorf("core: got %d vticks for radix %d", len(vt), s.cfg.Radix)
	}
	copy(s.cfg.Vticks, vt)
	s.rebuildReserved()
	return nil
}

// rel returns the real-time clock value relative to the current epoch,
// clamped to the counter range like the saturating hardware counter.
func (s *SSVC) rel(now Cycle) VTime {
	r := noc.VTimeOfCycle(noc.SatSub(now, s.base))
	if r > s.max {
		r = s.max
	}
	return r
}

// Coarse returns input i's quantised auxVC value: the SigBits most
// significant counter bits, clamped to the top thermometer level.
func (s *SSVC) Coarse(i int) int {
	v := (s.Aux(i) / s.quantum).Uint()
	if v >= uint64(s.levels) {
		return s.levels - 1
	}
	return int(v)
}

// Therm returns input i's thermometer-code vector.
func (s *SSVC) Therm(i int) []bool { return ThermCode(s.Coarse(i), s.levels) }

// LRG exposes the tie-break state (shared by all classes).
func (s *SSVC) LRG() *arb.LRGState { return s.lrg }

// Aux returns input i's auxVC counter value (relative to the epoch):
// what the hardware register holds, every quantum Tick subtracted.
//
//ssvc:hotpath
func (s *SSVC) Aux(i int) VTime { return noc.SatSub(s.aux[i], s.sub) }

// fold applies the quanta subtracted since the last fold to every
// counter.
func (s *SSVC) fold() {
	for i := range s.aux {
		s.aux[i] = noc.SatSub(s.aux[i], s.sub)
	}
	s.sub = 0
}

// plane returns level plane k: the inputs whose coarse auxVC value is k.
//
//ssvc:hotpath
func (s *SSVC) plane(k int) []uint64 { return s.lvl[k*s.words : (k+1)*s.words] }

// shiftPlanes is a quantum's coarse' = max(coarse-1, 0): every level
// plane moves down one position, level 1 folding into level 0, and the
// top plane empties. One memmove of the planes above level 1.
//
//ssvc:hotpath
func (s *SSVC) shiftPlanes() {
	l0, l1 := s.plane(0), s.plane(1)
	for w := range l0 {
		l0[w] |= l1[w]
	}
	copy(s.lvl[s.words:], s.lvl[2*s.words:])
	clear(s.lvl[(s.levels-1)*s.words:])
}

// Saturations returns how many halve/reset events have occurred.
func (s *SSVC) Saturations() uint64 { return s.saturations }

// glEligible reports whether a guaranteed-latency grant is currently
// within the class's shared bandwidth budget.
func (s *SSVC) glEligible(now Cycle) bool {
	if !s.cfg.EnableGL || s.cfg.GLVtick == 0 {
		return s.cfg.EnableGL
	}
	// Validate guarantees GLBurst >= 1 whenever policing is enabled; the
	// floor keeps the burst-1 conversion non-negative by construction.
	// A Vtick near 2^64 (a tiny GL share) would wrap the product to a
	// smaller allowance, so it saturates instead.
	burst := s.cfg.GLBurst
	if burst < 1 {
		burst = 1
	}
	allowance := noc.SatMul(noc.VTimeOf(uint64(burst-1)), s.cfg.GLVtick)
	return s.glVC <= noc.SatAdd(noc.VTimeOfCycle(now), allowance)
}

// Granted implements arb.Arbiter: the winner's virtual clock advances by
// its Vtick ("the auxVC counter increases by Vtick each time a packet is
// transmitted") and the LRG order rotates.
//
//ssvc:hotpath
func (s *SSVC) Granted(now noc.Cycle, req arb.Request) {
	s.lrg.Grant(req.Input)
	switch req.Class {
	case noc.GuaranteedLatency:
		if s.cfg.GLVtick > 0 {
			// Leaky-bucket step 1: the bucket clock never lags real time.
			if nv := noc.VTimeOfCycle(now); nv > s.glVC {
				s.glVC = nv
			}
			s.glVC = noc.SatAdd(s.glVC, s.cfg.GLVtick)
		}
	case noc.GuaranteedBandwidth:
		vt := s.cfg.Vticks[req.Input]
		if vt == 0 {
			return
		}
		c0 := s.Coarse(req.Input)
		a := s.Aux(req.Input)
		if r := s.rel(now); r > a {
			a = r
		}
		a = noc.SatAdd(a, vt)
		if a > s.max {
			s.aux[req.Input] = s.max + s.sub
			s.moveLevel(req.Input, c0, s.levels-1)
			s.onSaturation(now)
			return
		}
		s.aux[req.Input] = a + s.sub
		s.moveLevel(req.Input, c0, s.Coarse(req.Input))
	}
}

// onSaturation applies the configured finite-counter policy when a counter
// hits its ceiling. Under SubtractRealTime saturation simply clamps — the
// counter rides at its maximum until the periodic real-time subtraction
// drains it, which can take many quanta after a burst. Halve and Reset
// instead forgive accumulated "burst debt" across every counter at once,
// compressing the set of distinct thermometer codes so LRG ties (and with
// them latency fairness) become more frequent (§3.1 "Improving Latency
// Fairness").
func (s *SSVC) onSaturation(now noc.Cycle) {
	switch s.cfg.Policy {
	case SubtractRealTime:
		return
	case Halve:
		s.saturations++
		s.fold()
		for i := range s.aux {
			s.aux[i] /= 2
		}
		// coarse' = floor(coarse/2): merge level pairs downward — the
		// hardware's "copy the top half of the thermometer code to the
		// bottom half", one OR per plane pair.
		for k := 0; k < s.levels/2; k++ {
			lo, hi, dst := s.plane(2*k), s.plane(2*k+1), s.plane(k)
			for w := range dst {
				dst[w] = lo[w] | hi[w]
			}
		}
		clear(s.lvl[s.levels/2*s.words:])
	case Reset:
		s.saturations++
		clear(s.aux)
		s.sub = 0
		clear(s.lvl)
		copy(s.plane(0), s.allMask)
	}
}

// Tick implements arb.Arbiter: every time the real-time clock counter (the
// low CounterBits-SigBits bits) rolls over, one quantum is subtracted from
// every auxVC and the epoch advances — the hardware's "subtract 1 from the
// most significant bits and shift all thermometer codes down by 1". The
// real-time clock is the same piece of hardware under all three counter
// policies; the policies differ only in how auxVC saturation is handled.
// A quantum costs O(levels): the subtraction is one add to sub, and the
// per-counter fold runs once sub passes max, every 2^SigBits quanta.
//
//ssvc:hotpath
func (s *SSVC) Tick(now Cycle) {
	// Between quantum boundaries the tick is a no-op; an engine that
	// honours NextTick does not call it there at all. base never exceeds
	// now, so the loop condition below is exactly now >= next.
	if now < s.next {
		return
	}
	for noc.VTimeOfCycle(noc.SatSub(now, s.base)) >= s.quantum {
		s.sub += s.quantum
		s.base += noc.CycleOfVTime(s.quantum)
		s.shiftPlanes()
	}
	if s.sub > s.max {
		s.fold()
	}
	s.next = s.base + noc.CycleOfVTime(s.quantum)
}

// NextTick implements arb.TickScheduler: the next quantum boundary. Only
// Tick moves it, and Tick does nothing before it, so a Tick at exactly
// this cycle is the whole of what per-cycle calls would have computed.
func (s *SSVC) NextTick() Cycle { return s.next }
