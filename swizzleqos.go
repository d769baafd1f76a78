// Package swizzleqos is a cycle-accurate model of quality-of-service
// arbitration for a single-stage, high-radix crossbar switch (the Swizzle
// Switch), reproducing the DAC 2014 paper "Quality-of-Service for a
// High-Radix Switch".
//
// The switch supports three traffic classes:
//
//   - Best-Effort (BE): least-recently-granted arbitration, lowest
//     priority.
//   - Guaranteed-Bandwidth (GB): per-flow reserved fractions of each
//     output channel, enforced by SSVC — the Swizzle Switch Virtual Clock
//     — which compares coarse, thermometer-coded virtual clocks and breaks
//     ties with LRG, all in a single arbitration cycle.
//   - Guaranteed-Latency (GL): highest priority with a small shared
//     bandwidth reservation and an analytic worst-case waiting-time bound.
//
// # Quick start
//
//	cfg := swizzleqos.DefaultConfig(8)
//	net, err := swizzleqos.New(cfg,
//	    swizzleqos.Workload{
//	        Spec:   swizzleqos.FlowSpec{Src: 0, Dst: 7, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.25, PacketLength: 8},
//	        Inject: swizzleqos.Inject.Bernoulli(0.20, 1),
//	    },
//	)
//	if err != nil { ... }
//	net.Run(10_000)               // warm up
//	net.StartMeasurement()
//	net.Run(100_000)
//	report := net.Report()
//	fmt.Println(report.Table())
//
// Subpackages under internal/ hold the building blocks: the cycle-accurate
// switch (switchsim), the SSVC arbitration core (core), the baseline
// arbiters (arb), the structural wire model (circuit), workload generators
// (traffic), hardware cost models (hwmodel), the guaranteed-latency bound
// (glbound), and the paper's full experiment harness (experiments).
package swizzleqos

import (
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/hwmodel"
	"swizzleqos/internal/noc"
)

// Class is a traffic class (BE, GB, or GL).
type Class = noc.Class

// Traffic classes in increasing priority order.
const (
	BestEffort          = noc.BestEffort
	GuaranteedBandwidth = noc.GuaranteedBandwidth
	GuaranteedLatency   = noc.GuaranteedLatency
)

// FlowSpec describes a flow's traffic contract: source, destination,
// class, reserved rate (fraction of the output channel, in flits/cycle),
// and packet length in flits.
type FlowSpec = noc.FlowSpec

// Packet is a delivered message with its timestamps; see the noc package
// for the latency accessors.
type Packet = noc.Packet

// Cycle is a point in (or span of) simulated real time, in switch-clock
// cycles; VTime is virtual-clock time (auxVC counters, Vticks, stamps).
// See internal/noc for the domain discipline and conversion helpers.
type (
	Cycle = noc.Cycle
	VTime = noc.VTime
)

// CycleOf enters the real-time domain from a raw cycle count, for
// configuration boundaries (flags, JSON scenarios).
func CycleOf(n uint64) Cycle { return noc.CycleOf(n) }

// VTimeOf enters the virtual-clock domain from a raw count.
func VTimeOf(n uint64) VTime { return noc.VTimeOf(n) }

// CounterPolicy selects how SSVC's finite auxVC counters handle
// saturation.
type CounterPolicy = core.CounterPolicy

// Counter policies (§3.1): SubtractRealTime clamps and relies on the
// periodic real-time subtraction; Halve and Reset additionally rescale all
// counters when any saturates, trading strict rate proportionality for
// latency fairness.
const (
	SubtractRealTime = core.SubtractRealTime
	Halve            = core.Halve
	Reset            = core.Reset
)

// Arbitration selects the output-arbiter family for the whole switch.
type Arbitration = core.Arbitration

// Arbitration families; see internal/core for each.
const (
	SSVC                 = core.ArbSSVC
	LRG                  = core.ArbLRG
	RoundRobin           = core.ArbRoundRobin
	OriginalVirtualClock = core.ArbOriginalVirtualClock
	FixedPriority        = core.ArbFixedPriority
)

// GLConfig reserves a small shared fraction of every output channel for
// the guaranteed-latency class and bounds its bursts.
type GLConfig struct {
	// Rate is the reserved fraction of each output channel (e.g. 0.05).
	Rate float64
	// PacketLength is the nominal GL packet length used to derive the
	// policing tick.
	PacketLength int
	// Burst is the number of GL packets the leaky bucket admits
	// back-to-back before deferring further GL traffic.
	Burst int
}

// Config describes a QoS-enabled switch.
type Config struct {
	// Radix is the number of input and output ports.
	Radix int
	// BusWidthBits is the output channel width; it determines the
	// number of arbitration lanes (BusWidthBits / Radix) and with them
	// the thermometer-code resolution available to SSVC.
	BusWidthBits int

	// Arbitration selects the arbiter family; the zero value is SSVC.
	Arbitration Arbitration
	// Policy is SSVC's finite-counter policy.
	Policy CounterPolicy
	// CounterBits and SigBits size the auxVC counters. Zero values pick
	// a default: SigBits from the lane budget (capped at 4) and
	// CounterBits = SigBits + 8, matching the paper's 3+8 / 4-significant
	// configurations.
	CounterBits int
	SigBits     int

	// Per-class input buffering in flits. Zero values default to 16
	// (BE, GL) and 16 per output queue (GB).
	BEBufferFlits int
	GLBufferFlits int
	GBBufferFlits int

	// PacketChaining elides the arbitration cycle for back-to-back
	// packets at one crosspoint [10].
	PacketChaining bool

	// GL configures the guaranteed-latency class reservation; the zero
	// value disables GL policing but still gives GL packets top
	// priority when Arbitration is SSVC.
	GL GLConfig
}

// DefaultConfig returns the paper's baseline configuration for a switch of
// the given radix: a 128-bit bus (256-bit from radix 33 up, 512-bit from
// 65), 16-flit buffers, SSVC with the subtract-real-time policy, and a 5%
// GL reservation with 4-flit packets.
func DefaultConfig(radix int) Config {
	bus := 128
	if radix > 64 {
		bus = radix * 8
	} else if radix > 32 {
		bus = 256
	}
	return Config{
		Radix:         radix,
		BusWidthBits:  bus,
		Arbitration:   SSVC,
		Policy:        SubtractRealTime,
		BEBufferFlits: 16,
		GLBufferFlits: 16,
		GBBufferFlits: 16,
		GL:            GLConfig{Rate: 0.05, PacketLength: 4, Burst: 4},
	}
}

func (c *Config) fillDefaults(enableGL bool) error {
	if c.BEBufferFlits == 0 {
		c.BEBufferFlits = 16
	}
	if c.GLBufferFlits == 0 {
		c.GLBufferFlits = 16
	}
	if c.GBBufferFlits == 0 {
		c.GBBufferFlits = 16
	}
	plan, err := core.PlanLanes(c.BusWidthBits, c.Radix, enableGL, true)
	if err != nil {
		return err
	}
	if c.SigBits == 0 {
		c.SigBits = plan.MaxSigBits()
		if c.SigBits > 4 {
			c.SigBits = 4
		}
		if c.SigBits == 0 {
			return fmt.Errorf("swizzleqos: %d-bit bus with radix %d leaves no thermometer level for the GB class",
				c.BusWidthBits, c.Radix)
		}
	}
	if c.SigBits > plan.MaxSigBits() {
		return fmt.Errorf("swizzleqos: %d significant bits need %d GB lanes; a %d-bit bus with radix %d provides %d",
			c.SigBits, 1<<c.SigBits, c.BusWidthBits, c.Radix, plan.GBLanes)
	}
	if c.CounterBits == 0 {
		c.CounterBits = c.SigBits + 8
	}
	return nil
}

// GLBoundParams re-exports the guaranteed-latency bound parameters (Eq. 1).
type GLBoundParams = glbound.Params

// GLBurstBudget re-exports one flow's admissible burst (Eqs. 2-3).
type GLBurstBudget = glbound.BurstBudget

// GLBurstSizes evaluates the recursive burst-size budgets of Eqs. 2-3 for
// a set of per-flow latency constraints in cycles.
func GLBurstSizes(lmax int, latencies []float64) ([]GLBurstBudget, error) {
	return glbound.BurstSizes(lmax, latencies)
}

// StorageModel re-exports the Table 1 storage cost model.
type StorageModel = hwmodel.StorageConfig

// TimingModel re-exports the Table 2 frequency/area model.
type TimingModel = hwmodel.TimingConfig

// Table1Storage returns the paper's Table 1 configuration (64x64 switch,
// 512-bit buses).
func Table1Storage() StorageModel { return hwmodel.Table1Config() }
