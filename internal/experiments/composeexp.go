package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/compose"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// ComposeOutcome contrasts per-flow and per-crosspoint (aggregate)
// guarantee enforcement on one fabric.
type ComposeOutcome struct {
	System         string
	PerFlowWorst   float64 // min accepted/reserved across individual flows
	AggregateWorst float64 // min accepted/reserved across source aggregates
	PerFlowHeld    bool
	AggregateHeld  bool
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// ComposeQoS quantifies §4.4's argument against composing switches:
// "Crosspoints will have to be shared by several flows, requiring more
// per-flow state storage." Four GB flows (two per source terminal, with
// very different reservations) run on a single radix-8 SSVC switch and on
// a two-level Clos of SSVC switches with one uplink per leaf. On the
// single stage every flow has its own crosspoint and its own auxVC: all
// four reservations hold. On the composition, both of a terminal's flows
// traverse the same (terminal, uplink) crosspoint, whose single auxVC can
// only be programmed with their aggregate — the aggregate holds, but the
// per-flow split collapses to FIFO fairness and the 40% flow starves
// toward 25%.
func ComposeQoS(o Options) []ComposeOutcome {
	o = o.withDefaults()
	type contract struct {
		src, dst int
		rate     float64
	}
	contracts := []contract{
		{0, 4, 0.40},
		{0, 5, 0.10},
		{1, 4, 0.20},
		{1, 5, 0.10},
	}
	const pktLen = 8
	specs := make([]noc.FlowSpec, len(contracts))
	for i, c := range contracts {
		specs[i] = noc.FlowSpec{Src: c.src, Dst: c.dst,
			Class: noc.GuaranteedBandwidth, Rate: c.rate, PacketLength: pktLen}
	}
	// aggregate[src] is the summed reservation of src's flows. A dense
	// slice rather than a map keeps every iteration over it
	// deterministic (ssvc-lint's determinism invariant).
	maxSrc := 0
	for _, c := range contracts {
		if c.src > maxSrc {
			maxSrc = c.src
		}
	}
	aggregate := make([]float64, maxSrc+1)
	for _, c := range contracts {
		aggregate[c.src] += c.rate
	}

	evaluate := func(system string, col *stats.Collector, err error) ComposeOutcome {
		oc := ComposeOutcome{System: system, AggregateWorst: 1e9, Err: err}
		oc.PerFlowWorst = col.GB(specs).Worst
		bySrc := make([]float64, len(aggregate))
		for _, s := range specs {
			bySrc[s.Src] += col.Throughput(stats.SpecKey(s))
		}
		for src, sum := range bySrc {
			if aggregate[src] == 0 {
				continue
			}
			if ratio := sum / aggregate[src]; ratio < oc.AggregateWorst {
				oc.AggregateWorst = ratio
			}
		}
		oc.PerFlowHeld = oc.PerFlowWorst >= heldShare
		oc.AggregateHeld = oc.AggregateWorst >= heldShare
		return oc
	}

	// Single-stage radix-8 SSVC switch: one crosspoint per flow.
	singleStage := func() ComposeOutcome {
		col, _, err := newSweepScratch().row(fig4Config(), family(core.ArbSSVC, fig4SSVC, specs), backlogged(specs...), o)
		if col == nil {
			return ComposeOutcome{System: "SingleStage radix-8 SSVC", Err: err}
		}
		return evaluate("SingleStage radix-8 SSVC", col, err)
	}

	// Two-level Clos, one uplink per leaf: both of a terminal's flows
	// share the (terminal, uplink) crosspoint, so the leaf's SSVC can
	// only be programmed with the aggregate Vtick.
	composed := func() ComposeOutcome {
		const system = "Composed 2-level Clos (shared crosspoints)"
		topo, err := compose.TwoLevelClos(2, 4, 1)
		var net *compose.Network
		if err == nil {
			net, err = compose.New(compose.Config{
				Topology:    topo,
				BufferFlits: fig4BufFlits,
				NewArbiter: func(nodeID, port, ports int) arb.Arbiter {
					// Leaf 0's uplink (port 4) regulates the contended
					// stage; aggregate reservations per input port.
					if nodeID == 0 && port == 4 {
						vticks := make([]core.VTime, ports)
						for src, sum := range aggregate {
							if sum > 0 && src < ports {
								vticks[src] = noc.FlowSpec{Rate: sum, PacketLength: pktLen}.Vtick()
							}
						}
						return core.NewSSVC(core.Config{
							Radix: ports, CounterBits: counterBits, SigBits: 3,
							Policy: core.SubtractRealTime, Vticks: vticks,
						})
					}
					return arb.NewLRG(ports)
				},
			})
		}
		var seq traffic.Sequence
		if err := attach(net, err, &seq, backlogged(specs...)); err != nil {
			return ComposeOutcome{System: system, Err: err}
		}
		col, err := newSweepScratch().runCollected(net, &seq, o)
		return evaluate(system, col, err)
	}

	// The two fabrics are independent simulations; fan them out.
	jobs := []func() ComposeOutcome{singleStage, composed}
	return runner.Map(o.pool(), len(jobs), func(i int) ComposeOutcome { return jobs[i]() })
}

// ComposeTable renders the composition comparison.
func ComposeTable(outcomes []ComposeOutcome) *stats.Table {
	t := stats.NewTable(
		"§4.4 composition: per-flow vs aggregate guarantees (flows 40/10% and 20/10% per source)",
		"system", "per-flow worst ratio", "per-flow held?", "aggregate worst ratio", "aggregate held?")
	for _, oc := range outcomes {
		t.AddRow(oc.System, fmt.Sprintf("%.3f", oc.PerFlowWorst), oc.PerFlowHeld,
			fmt.Sprintf("%.3f", oc.AggregateWorst), oc.AggregateHeld)
	}
	return t
}
