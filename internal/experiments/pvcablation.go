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

// PVCOutcome summarises one scheme's handling of an urgent flow blocked
// behind long bulk packets.
type PVCOutcome struct {
	Scheme      string
	UrgentMean  float64 // mean network latency of the urgent flow
	UrgentMax   uint64  // worst network latency of the urgent flow
	Goodput     float64 // delivered flits/cycle at the output
	Preemptions uint64
	WastedFlits uint64
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// AblationPVC compares the two ways out of the long-packet blocking
// problem: Preemptive Virtual Clock [7] aborts the packet on the channel
// when a much higher-priority one arrives, paying with retransmitted
// flits; the paper's GL class instead waits for channel release but
// bounds that wait analytically (Eq. 1's l_max term) with zero waste.
//
// Six bulk flows send 64-flit packets back to back; an urgent flow sends
// a short packet every ~700 cycles. Without preemption (original Virtual
// Clock) the urgent packet waits out whatever bulk packet holds the
// channel — up to 65 cycles. PVC cuts that to almost nothing but discards
// partially-sent bulk packets; SSVC's GL lane achieves the same bounded
// wait as OrigVC with a guarantee and no goodput loss.
func AblationPVC(o Options) []PVCOutcome {
	o = o.withDefaults()
	const (
		bulkLen   = 64
		urgentLen = 8
	)
	bulk := make([]noc.FlowSpec, 6)
	for i := range bulk {
		bulk[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.09,
			PacketLength: bulkLen,
		}
	}
	urgent := noc.FlowSpec{
		Src: 7, Dst: 0,
		Class:        noc.GuaranteedBandwidth,
		Rate:         0.30, // large reservation = small Vtick = high VC priority
		PacketLength: urgentLen,
	}
	all := append(append([]noc.FlowSpec(nil), bulk...), urgent)

	cfg := fig4Config()
	cfg.GBBufferFlits = 2 * bulkLen
	run := func(name string, factory func(int) arb.Arbiter, urgentSpec noc.FlowSpec) PVCOutcome {
		var seq traffic.Sequence
		ws := append(backlogged(bulk...), traffic.Workload{Spec: urgentSpec, Inject: traffic.Inject.Periodic(701, 17)})
		sw, err := crossbar(cfg, factory, &seq, ws)
		if err != nil {
			return PVCOutcome{Scheme: name, Err: err}
		}
		col, err := runCollected(sw, &seq, o)
		oc := PVCOutcome{Scheme: name, Err: err}
		if f := col.Flow(stats.SpecKey(urgentSpec)); f != nil {
			oc.UrgentMean = f.MeanNetworkLatency()
			oc.UrgentMax = f.LatMax
		}
		oc.Goodput = col.OutputThroughput(0)
		oc.Preemptions = sw.Preempted
		oc.WastedFlits = sw.WastedFlits
		return oc
	}

	vticks := func(out int) []core.VTime { return core.Vticks(fig4Radix, all, out) }

	urgentGL := urgent
	urgentGL.Class = noc.GuaranteedLatency
	urgentGL.Rate = 0.05

	// The three schemes are independent simulations; fan them out.
	jobs := []func() PVCOutcome{
		func() PVCOutcome {
			return run("OrigVC(no preemption)", func(out int) arb.Arbiter {
				return arb.NewOrigVC(fig4Radix, vticks(out))
			}, urgent)
		},
		func() PVCOutcome {
			return run("PVC(threshold=64)", func(out int) arb.Arbiter {
				return arb.NewPVC(fig4Radix, vticks(out), 64)
			}, urgent)
		},
		func() PVCOutcome {
			arbCfg := fig4SSVC
			arbCfg.EnableGL, arbCfg.GLVtick, arbCfg.GLBurst = true, noc.FlowSpec{Rate: urgentGL.Rate, PacketLength: urgentLen}.Vtick(), 2
			return run("SSVC+GL", core.FromFlows(arbCfg, all), urgentGL)
		},
	}
	return runner.Map(o.pool(), len(jobs), func(i int) PVCOutcome { return jobs[i]() })
}

// PVCTable renders the preemption comparison.
func PVCTable(outcomes []PVCOutcome) *stats.Table {
	t := stats.NewTable(
		"Related work [7]: preemption vs the GL class for urgent traffic behind 64-flit bulk packets",
		"scheme", "urgent mean lat", "urgent max lat", "goodput", "preemptions", "wasted flits")
	for _, oc := range outcomes {
		t.AddRow(oc.Scheme, fmt.Sprintf("%.1f", oc.UrgentMean), oc.UrgentMax,
			fmt.Sprintf("%.3f", oc.Goodput), oc.Preemptions, oc.WastedFlits)
	}
	return t
}
