package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/mesh"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// MotivationOutcome is one system's treatment of the contended flows.
type MotivationOutcome struct {
	System           string
	VictimThroughput float64 // accepted flits/cycle
	VictimReserved   float64
	VictimMeanLat    float64       // mean total latency, cycles
	MeetsReservation bool          // the victim's own contract
	GB               stats.Verdict // all four flows' reservations
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// Motivation quantifies the paper's §1-§2.1 argument for a single-stage
// switch. A victim flow from node 0 to node 15 of a 16-node system wants
// 30% of its destination's bandwidth while three aggressors (nodes 1-3)
// flood the same destination:
//
//   - On a radix-16 Swizzle Switch with SSVC, the victim's reservation is
//     a crosspoint register: it receives its 30%.
//   - On a 4x4 mesh, the victim shares six hops with the aggressors.
//     Router arbiters see input ports, not flows, so once flows merge the
//     victim's identity is gone: under LRG it receives roughly the
//     product of its per-hop port shares, and even a statically weighted
//     WRR favouring the through ports cannot restore it — per-flow QoS
//     would require flow state at every router, which is exactly the
//     complexity the paper's single-stage design avoids.
func Motivation(o Options) []MotivationOutcome {
	o = o.withDefaults()
	const (
		nodes     = 16
		victimDst = 15
		reserved  = 0.30
		pktLen    = 8
	)
	aggressors := []int{1, 2, 3}

	specs := func() []noc.FlowSpec {
		out := []noc.FlowSpec{{
			Src: 0, Dst: victimDst,
			Class:        noc.GuaranteedBandwidth,
			Rate:         reserved,
			PacketLength: pktLen,
		}}
		for _, a := range aggressors {
			out = append(out, noc.FlowSpec{
				Src: a, Dst: victimDst,
				Class:        noc.GuaranteedBandwidth,
				Rate:         0.18,
				PacketLength: pktLen,
			})
		}
		return out
	}

	victimKey := stats.FlowKey{Src: 0, Dst: victimDst, Class: noc.GuaranteedBandwidth}
	outcome := func(system string, col *stats.Collector, err error) MotivationOutcome {
		oc := MotivationOutcome{
			System:           system,
			VictimThroughput: col.Throughput(victimKey),
			VictimReserved:   reserved,
			Err:              err,
		}
		if f := col.Flow(victimKey); f != nil {
			oc.VictimMeanLat = f.MeanLatency()
		}
		oc.MeetsReservation = oc.VictimThroughput >= reserved*0.95
		oc.GB = col.GB(specs())
		return oc
	}

	// Single-stage Swizzle Switch with SSVC.
	swizzleRun := func() MotivationOutcome {
		flows := specs()
		var seq traffic.Sequence
		sw, err := crossbar(switchsim.Config{
			Radix:         nodes,
			BEBufferFlits: fig4BufFlits,
			GLBufferFlits: fig4BufFlits,
			GBBufferFlits: fig4BufFlits,
		}, core.FromFlows(core.Config{Radix: nodes, CounterBits: counterBits, SigBits: fig4SigBits}, flows),
			&seq, backlogged(flows...))
		if err != nil {
			return MotivationOutcome{System: "SwizzleSwitch+SSVC", GB: stats.GBNotRun(flows), Err: err}
		}
		col, err := runCollected(sw, &seq, o)
		return outcome("SwizzleSwitch+SSVC", col, err)
	}

	// 4x4 mesh variants.
	meshRun := func(name string, newArb func() arb.Arbiter) MotivationOutcome {
		m, err := mesh.New(mesh.Config{Width: 4, Height: 4, BufferFlits: fig4BufFlits, NewArbiter: newArb})
		var seq traffic.Sequence
		if err := attach(m, err, &seq, backlogged(specs()...)); err != nil {
			return MotivationOutcome{System: name, GB: stats.GBNotRun(specs()), Err: err}
		}
		col, err := runCollected(m, &seq, o)
		return outcome(name, col, err)
	}

	// The three systems are independent simulations; fan them out.
	jobs := []func() MotivationOutcome{
		swizzleRun,
		func() MotivationOutcome { return meshRun("Mesh+LRG", nil) },
		func() MotivationOutcome {
			return meshRun("Mesh+WRR(static ports)", func() arb.Arbiter {
				// The best a designer can do without per-flow state:
				// weight the through ports (which aggregate several
				// flows) above the local injection port.
				return arb.NewWRR([]int{1 * pktLen, 4 * pktLen, 4 * pktLen, 4 * pktLen, 4 * pktLen}, true)
			})
		},
	}
	return runner.Map(o.pool(), len(jobs), func(i int) MotivationOutcome { return jobs[i]() })
}

// MotivationTable renders the comparison.
func MotivationTable(outcomes []MotivationOutcome) *stats.Table {
	t := stats.NewTable(
		"Motivation (§1-§2.1): four reserving flows (30/18/18/18%) to one hot node, 16 nodes",
		"system", "victim accepted", "reserved", "victim met?", "worst flow ratio", "all met?", "victim mean latency")
	for _, oc := range outcomes {
		t.AddRow(oc.System, fmt.Sprintf("%.3f", oc.VictimThroughput),
			fmt.Sprintf("%.2f", oc.VictimReserved), oc.MeetsReservation,
			fmt.Sprintf("%.3f", oc.GB.Worst), oc.GB.Holds(),
			fmt.Sprintf("%.1f", oc.VictimMeanLat))
	}
	return t
}
