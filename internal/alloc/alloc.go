// Package alloc plans switch programming from application requirements:
// it admission-checks a set of flow contracts against the paper's §3.3
// budget rule (per output, the GB reservations plus the GL reservation
// must fit within the channel), sizes the per-crosspoint Vtick registers
// within their hardware width, derives the guaranteed-latency class's
// reservation and policing burst from the flows' latency constraints
// (Eqs. 1-3), and emits one SSVC configuration per output.
//
// The planner is what an SoC integrator would run at design time; the
// simulator consumes its output directly.
package alloc

import (
	"fmt"
	"math"

	"swizzleqos/internal/core"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/noc"
)

// GLRequirement is a guaranteed-latency flow's contract: infrequent
// time-critical packets that must be granted within LatencyBound cycles
// even when BurstPackets of them arrive at once.
type GLRequirement struct {
	Src          int
	Dst          int
	PacketLength int
	LatencyBound float64
	BurstPackets int
}

// Requirements collects everything one switch must support.
type Requirements struct {
	Radix        int
	BusWidthBits int

	// CounterBits and SigBits size the auxVC counters; zero values are
	// derived from the lane plan (SigBits = min(4, lane budget),
	// CounterBits = SigBits + 8).
	CounterBits int
	SigBits     int
	// Policy selects the finite-counter handling.
	Policy core.CounterPolicy

	// VtickBits is the per-crosspoint Vtick register width (Table 1
	// uses 8). Flows whose Vtick exceeds its range force a coarser tick
	// granularity, which the planner reports per output.
	VtickBits int

	// GB holds the guaranteed-bandwidth flow contracts; BestEffort
	// flows need no planning.
	GB []noc.FlowSpec
	// GL holds the guaranteed-latency contracts.
	GL []GLRequirement

	// MaxPacketLength is the longest packet any class may inject (lmax
	// in Eq. 1); zero means "derive from the GB and GL flows".
	MaxPacketLength int

	// StrictCapacity budgets against the channel's effective data
	// capacity L/(L+1) (accounting for the per-packet arbitration
	// cycle) instead of the nominal 1.0 flits/cycle of §3.3. It is the
	// safer choice when reservations must hold under saturation.
	StrictCapacity bool
}

// OutputPlan is the programming for one output channel.
type OutputPlan struct {
	Output int
	// Vticks[i] is the value programmed into crosspoint (i, Output), in
	// ticks of Granularity cycles. Vticks are rounded *down* so every
	// flow's implied entitlement (PacketLength / (Vtick*Granularity))
	// is at least its reservation; low-rate flows whose Vtick exceeds
	// the register range are clamped to the maximum, over-entitling
	// them slightly — the budget check below uses the implied rates, so
	// the §3.3 rule still holds.
	Vticks []uint64
	// Granularity is the real-time-clock cycles per Vtick unit: 1 when
	// the implied rates fit the budget at full resolution, a larger
	// power of two when register clamping would oversubscribe.
	Granularity uint64
	// Implied[i] is crosspoint i's entitlement in flits/cycle after
	// register quantisation (>= the nominal reservation).
	Implied []float64
	// GBReserved is the summed GB reservation.
	GBReserved float64
	// GLReserved, GLVtick, GLBurst program the shared GL budget; zero
	// values when no GL flow targets this output.
	GLReserved float64
	GLVtick    core.VTime
	GLBurst    int
	// GLBufferFlits is the minimum per-input GL buffer depth implied by
	// the flows' burst requirements.
	GLBufferFlits int
	// WorstGLWait is Eq. 1's bound for this output under the planned
	// buffers, in cycles.
	WorstGLWait float64
}

// Plan is the full switch programming.
type Plan struct {
	Radix       int
	Lanes       core.LanePlan
	CounterBits int
	SigBits     int
	Policy      core.CounterPolicy
	Outputs     map[int]*OutputPlan
	// Warnings records non-fatal compromises (e.g. coarsened Vtick
	// granularity).
	Warnings []string
}

// Build validates the requirements and produces the switch programming.
func Build(req Requirements) (*Plan, error) {
	if req.VtickBits == 0 {
		req.VtickBits = 8
	}
	enableGL := len(req.GL) > 0
	lanes, err := core.PlanLanes(req.BusWidthBits, req.Radix, enableGL, true)
	if err != nil {
		return nil, err
	}
	if req.SigBits == 0 {
		req.SigBits = lanes.MaxSigBits()
		if req.SigBits > 4 {
			req.SigBits = 4
		}
		if req.SigBits == 0 {
			return nil, fmt.Errorf("alloc: no GB thermometer level available on a %d-bit bus with radix %d",
				req.BusWidthBits, req.Radix)
		}
	}
	if 1<<req.SigBits > lanes.GBLanes {
		return nil, fmt.Errorf("alloc: %d significant bits need %d lanes; only %d GB lanes available",
			req.SigBits, 1<<req.SigBits, lanes.GBLanes)
	}
	if req.CounterBits == 0 {
		req.CounterBits = req.SigBits + 8
	}

	lmax := req.MaxPacketLength
	for _, f := range req.GB {
		if f.PacketLength > lmax {
			lmax = f.PacketLength
		}
	}
	for _, g := range req.GL {
		if g.PacketLength > lmax {
			lmax = g.PacketLength
		}
	}
	if lmax < 1 {
		return nil, fmt.Errorf("alloc: no flows to plan")
	}

	plan := &Plan{
		Radix:       req.Radix,
		Lanes:       lanes,
		CounterBits: req.CounterBits,
		SigBits:     req.SigBits,
		Policy:      req.Policy,
		Outputs:     make(map[int]*OutputPlan),
	}
	get := func(out int) *OutputPlan {
		p := plan.Outputs[out]
		if p == nil {
			p = &OutputPlan{
				Output:      out,
				Vticks:      make([]uint64, req.Radix),
				Implied:     make([]float64, req.Radix),
				Granularity: 1,
			}
			plan.Outputs[out] = p
		}
		return p
	}

	lens := make(map[int][]int) // per output, packet length per input
	for i, f := range req.GB {
		if f.Class != noc.GuaranteedBandwidth {
			return nil, fmt.Errorf("alloc: GB flow %d has class %v", i, f.Class)
		}
		if err := f.Validate(req.Radix); err != nil {
			return nil, fmt.Errorf("alloc: GB flow %d: %w", i, err)
		}
		p := get(f.Dst)
		if lens[f.Dst] == nil {
			lens[f.Dst] = make([]int, req.Radix)
		}
		if lens[f.Dst][f.Src] != 0 {
			return nil, fmt.Errorf("alloc: two GB reservations for crosspoint (%d,%d)", f.Src, f.Dst)
		}
		lens[f.Dst][f.Src] = f.PacketLength
		p.Vticks[f.Src] = noc.ClampUint64(float64(f.PacketLength)/f.Rate, math.MaxUint64) // floor: entitlement >= rate
		if p.Vticks[f.Src] == 0 {
			p.Vticks[f.Src] = 1
		}
		p.GBReserved += f.Rate
	}

	if err := planGL(req, plan, get, lmax); err != nil {
		return nil, err
	}

	// Budget check (§3.3) and Vtick register fitting, per output. The
	// check uses the *implied* entitlements after register quantisation,
	// which exceed the nominal rates (floor rounding and clamping), so a
	// passing plan really is enforceable by the hardware.
	capacity := 1.0
	if req.StrictCapacity {
		capacity = float64(lmax) / float64(lmax+1)
	}
	vtickMax := uint64(1)<<req.VtickBits - 1
	for out := 0; out < req.Radix; out++ { // every planned output passed Validate(req.Radix)
		p := plan.Outputs[out]
		if p == nil {
			continue
		}
		if total := p.GBReserved + p.GLReserved; total > capacity {
			return nil, fmt.Errorf("alloc: output %d oversubscribed: GB %.3f + GL %.3f > capacity %.3f",
				out, p.GBReserved, p.GLReserved, capacity)
		}
		if err := fitRegisters(p, req, lens[out], vtickMax, capacity, plan); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// fitRegisters quantises one output's Vticks into the register width,
// coarsening the tick granularity only when clamped low-rate flows would
// oversubscribe the implied budget.
func fitRegisters(p *OutputPlan, req Requirements, lens []int, vtickMax uint64, capacity float64, plan *Plan) error {
	cycleTicks := append([]uint64(nil), p.Vticks...) // Vticks in cycles
	for g := uint64(1); ; g *= 2 {
		implied := p.GLReserved
		clamped := false
		for i, v := range cycleTicks {
			if v == 0 {
				p.Vticks[i] = 0
				p.Implied[i] = 0
				continue
			}
			ticks := v / g // floor keeps entitlement >= reservation
			if ticks == 0 {
				ticks = 1
			}
			if ticks > vtickMax {
				ticks = vtickMax
				clamped = true
			}
			p.Vticks[i] = ticks
			// Entitlement from the programmed register.
			p.Implied[i] = float64(lens[i]) / float64(ticks*g)
			implied += p.Implied[i]
		}
		if implied <= capacity {
			p.Granularity = g
			if g > 1 {
				plan.Warnings = append(plan.Warnings, fmt.Sprintf(
					"output %d: Vtick granularity coarsened to %d cycles/tick to fit %d-bit registers",
					p.Output, g, req.VtickBits))
			}
			return nil
		}
		if !clamped {
			return fmt.Errorf("alloc: output %d: implied entitlements %.3f exceed capacity %.3f even without register clamping",
				p.Output, implied, capacity)
		}
	}
}

// planGL sizes the GL class per output: buffers from the burst demands,
// the reservation from the implied duty cycle, the policing burst from
// the total admissible burst, and verifies every latency constraint
// against Eqs. 1-3.
func planGL(req Requirements, plan *Plan, get func(int) *OutputPlan, lmax int) error {
	byOut := make([][]GLRequirement, req.Radix) // GL flows per output, in ascending output order
	for i, g := range req.GL {
		spec := noc.FlowSpec{Src: g.Src, Dst: g.Dst, Class: noc.GuaranteedLatency,
			Rate: 0.01, PacketLength: g.PacketLength}
		if err := spec.Validate(req.Radix); err != nil {
			return fmt.Errorf("alloc: GL flow %d: %w", i, err)
		}
		if g.BurstPackets < 1 {
			return fmt.Errorf("alloc: GL flow %d: burst %d must be at least 1 packet", i, g.BurstPackets)
		}
		byOut[g.Dst] = append(byOut[g.Dst], g)
	}
	for out, flows := range byOut {
		if len(flows) == 0 {
			continue
		}
		p := get(out)
		nGL := len(flows)
		lmin := flows[0].PacketLength
		buf := 0
		latencies := make([]float64, nGL)
		for i, g := range flows {
			if g.PacketLength < lmin {
				lmin = g.PacketLength
			}
			if b := g.PacketLength * g.BurstPackets; b > buf {
				buf = b
			}
			latencies[i] = g.LatencyBound
		}
		params := glbound.Params{LMax: lmax, LMin: lmin, NGL: nGL, BufferFlits: buf}
		if err := params.Validate(); err != nil {
			return fmt.Errorf("alloc: output %d GL: %w", out, err)
		}
		wait := params.MaxWait()
		// Eq. 1 bounds every buffered packet; each flow's constraint
		// must cover it.
		for i, g := range flows {
			if g.LatencyBound < float64(lmax) {
				return fmt.Errorf("alloc: output %d GL flow %d: bound %.0f below channel release time %d",
					out, i, g.LatencyBound, lmax)
			}
			if wait > g.LatencyBound {
				// Check the finer-grained burst budget (Eqs. 2-3):
				// the flow may still fit if its burst is small.
				budgets, err := glbound.BurstSizes(lmax, latencies)
				if err != nil {
					return fmt.Errorf("alloc: output %d GL: %w", out, err)
				}
				admissible := false
				for _, b := range budgets {
					if b.Latency == g.LatencyBound && float64(flows[i].BurstPackets) <= b.MaxPackets {
						admissible = true
						break
					}
				}
				if !admissible {
					return fmt.Errorf("alloc: output %d GL flow %d: burst %d packets cannot meet bound %.0f (tau_GL=%.0f)",
						out, i, g.BurstPackets, g.LatencyBound, wait)
				}
			}
		}
		// Reserve bandwidth so a full adversarial burst amortised over
		// the tightest bound stays within budget, floored at 5%
		// ("a small fraction of bandwidth", §3.3).
		tightest := latencies[0]
		for _, l := range latencies {
			if l < tightest {
				tightest = l
			}
		}
		rate := float64(buf) / tightest
		if rate < 0.05 {
			rate = 0.05
		}
		if rate > 0.5 {
			return fmt.Errorf("alloc: output %d GL demands %.2f of the channel; latency bounds too tight for the requested bursts", out, rate)
		}
		p.GLReserved = rate
		p.GLVtick = noc.FlowSpec{Rate: rate, PacketLength: lmin}.Vtick()
		p.GLBurst = nGL * (buf / lmin)
		p.GLBufferFlits = buf
		p.WorstGLWait = wait
	}
	return nil
}

// SSVCConfig returns the core arbitration configuration for one output.
func (p *Plan) SSVCConfig(output int) core.Config {
	op := p.Outputs[output]
	cfg := core.Config{
		Radix:       p.Radix,
		CounterBits: p.CounterBits,
		SigBits:     p.SigBits,
		Policy:      p.Policy,
		Vticks:      make([]core.VTime, p.Radix),
		EnableGL:    p.Lanes.GLLanes > 0,
	}
	if op != nil {
		// The simulator's clock is one cycle per tick; scale coarsened
		// Vticks back to cycles.
		for i, v := range op.Vticks {
			cfg.Vticks[i] = noc.VTimeOf(v * op.Granularity)
		}
		cfg.GLVtick = op.GLVtick
		cfg.GLBurst = op.GLBurst
	}
	return cfg
}
