package swizzleqos

import (
	"fmt"

	"swizzleqos/internal/alloc"
	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/stats"
)

// PlanRequirements collects a system's flow contracts for design-time
// planning: guaranteed-bandwidth reservations, guaranteed-latency
// contracts with per-flow latency bounds and burst sizes, and the switch
// geometry. See the alloc package for field documentation.
type PlanRequirements = alloc.Requirements

// GLContract is a guaranteed-latency flow's requirement: packets granted
// within LatencyBound cycles even when BurstPackets arrive at once.
type GLContract = alloc.GLRequirement

// SwitchPlan is the admission-checked programming for every output
// channel: Vticks (with hardware-register granularity), the GL class
// reservation, policing burst, and buffer sizing, plus Eq. 1's worst-case
// GL wait per output.
type SwitchPlan = alloc.Plan

// Plan admission-checks the requirements against the §3.3 budget rule and
// the lane/counter hardware limits, and returns the switch programming.
func Plan(req PlanRequirements) (*SwitchPlan, error) {
	return alloc.Build(req)
}

// NewPlanned builds a Network whose per-output SSVC arbiters are
// programmed directly from a SwitchPlan, with input buffers sized from
// the plan's GL requirements. Workload specs are validated against the
// plan's radix; their reservations should be the ones the plan was built
// from.
func NewPlanned(plan *SwitchPlan, workloads ...Workload) (*Network, error) {
	if plan == nil {
		return nil, fmt.Errorf("swizzleqos: nil plan")
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("swizzleqos: at least one workload is required")
	}
	glBuf := 16
	for out := 0; out < plan.Radix; out++ {
		if op := plan.Outputs[out]; op != nil {
			glBuf = max(glBuf, op.GLBufferFlits)
		}
	}
	for _, w := range workloads {
		if err := w.Spec.Validate(plan.Radix); err != nil {
			return nil, err
		}
	}
	return newNetwork(Config{
		Radix:         plan.Radix,
		Arbitration:   SSVC,
		Policy:        plan.Policy,
		CounterBits:   plan.CounterBits,
		SigBits:       plan.SigBits,
		BEBufferFlits: 16,
		GLBufferFlits: glBuf,
		GBBufferFlits: 16,
	}, func(out int) arb.Arbiter {
		return core.NewSSVC(plan.SSVCConfig(out))
	}, workloads)
}

// PlanTable renders a plan's per-output programming as a table.
func PlanTable(plan *SwitchPlan) string {
	t := stats.NewTable(
		fmt.Sprintf("switch plan: radix %d, %d lanes (%d GB levels), %d+%d-bit counters, %v policy",
			plan.Radix, plan.Lanes.Lanes, plan.Lanes.GBLanes, plan.SigBits,
			plan.CounterBits-plan.SigBits, plan.Policy),
		"output", "GB reserved", "GL reserved", "GL burst(pkts)", "GL buffer(flits)", "tau_GL(cycles)", "vtick granularity")
	for out := 0; out < plan.Radix; out++ {
		op, ok := plan.Outputs[out]
		if !ok {
			continue
		}
		t.AddRow(out, fmt.Sprintf("%.3f", op.GBReserved), fmt.Sprintf("%.3f", op.GLReserved),
			op.GLBurst, op.GLBufferFlits, fmt.Sprintf("%.0f", op.WorstGLWait), op.Granularity)
	}
	return t.String()
}
