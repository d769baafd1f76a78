package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// DecouplingOutcome compares how a scheme treats a compliant low-rate
// flow against the saturated large allocations of the Figure 5 mix.
type DecouplingOutcome struct {
	Scheme       string
	LowAllocLat  float64 // mean network latency of the compliant 1% flow
	HighAllocLat float64 // mean network latency of the saturated 40% flow
	Coupling     float64 // low/high latency ratio; ~1 or below = decoupled
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// AblationDecoupling places the related-work CCSP scheme ([1], §5: it
// "decouples latency from the allocated bandwidth rate by using a
// scheduler that assigns a static priority among requesters") next to the
// paper's own mechanisms. The 1% flow injects within its contract (one
// packet per 800 cycles) — latency decoupling is a promise to compliant
// traffic — while the other seven allocations stay saturated. Original
// Virtual Clock still punishes the compliant flow (its stamp lands a full
// Vtick in the future); CCSP at top static priority serves it nearly
// instantly; SSVC's Reset policy gets close without static priorities or
// per-requester provisioning at the arbiter.
func AblationDecoupling(o Options) []DecouplingOutcome {
	o = o.withDefaults()
	specs := fig5Specs()
	// The 1% flow complies with its contract: one 8-flit packet every
	// 800 cycles.
	interval := noc.CycleOf(uint64(float64(specs[0].PacketLength) / specs[0].Rate))
	ws := append([]traffic.Workload{{Spec: specs[0], Inject: traffic.Inject.Periodic(interval, 13)}},
		backlogged(specs[1:]...)...)
	run := func(name string, factory func(int) arb.Arbiter) DecouplingOutcome {
		var seq traffic.Sequence
		sw, err := crossbar(fig4Config(), factory, &seq, ws)
		if err != nil {
			return DecouplingOutcome{Scheme: name, Err: err}
		}
		col, err := runCollected(sw, &seq, o)
		lat := func(s noc.FlowSpec) float64 {
			f := col.Flow(stats.SpecKey(s))
			if f == nil {
				return 0
			}
			return f.MeanNetworkLatency()
		}
		oc := DecouplingOutcome{Scheme: name, LowAllocLat: lat(specs[0]), HighAllocLat: lat(specs[fig4Radix-1]), Err: err}
		if oc.HighAllocLat > 0 {
			oc.Coupling = oc.LowAllocLat / oc.HighAllocLat
		}
		return oc
	}

	ccspFactory := func(int) arb.Arbiter {
		rates := make([]float64, fig4Radix)
		bursts := make([]float64, fig4Radix)
		prios := make([]int, fig4Radix)
		for i, a := range Fig5Allocations {
			rates[i] = a / 100
			bursts[i] = float64(4 * fig4PacketLen)
			prios[i] = i // tightest allocation first: 1% has top priority
		}
		return arb.NewCCSP(rates, bursts, prios, true)
	}
	jobs := []func() DecouplingOutcome{
		func() DecouplingOutcome {
			return run("OriginalVC", func(out int) arb.Arbiter {
				return arb.NewOrigVC(fig4Radix, core.Vticks(fig4Radix, specs, out))
			})
		},
		func() DecouplingOutcome {
			return run("SSVC/Reset", core.FromFlows(fig5SSVC(core.Reset), specs))
		},
		func() DecouplingOutcome { return run("CCSP[1]", ccspFactory) },
	}
	return runner.Map(o.pool(), len(jobs), func(i int) DecouplingOutcome { return jobs[i]() })
}

// DecouplingTable renders the related-work comparison.
func DecouplingTable(outcomes []DecouplingOutcome) *stats.Table {
	t := stats.NewTable(
		"Related work (§5): latency decoupling on the Figure 5 mix (1% vs 40% allocation)",
		"scheme", "1%-flow latency", "40%-flow latency", "coupling (1%/40%)")
	for _, oc := range outcomes {
		t.AddRow(oc.Scheme, fmt.Sprintf("%.1f", oc.LowAllocLat),
			fmt.Sprintf("%.1f", oc.HighAllocLat), fmt.Sprintf("%.2f", oc.Coupling))
	}
	return t
}
