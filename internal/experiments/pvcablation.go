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
	bulk := intoOutput0(bulkLen, uniform(6, 0.09)...)
	urgent := noc.FlowSpec{
		Src: 7, Dst: 0,
		Class:        noc.GuaranteedBandwidth,
		Rate:         0.30, // large reservation = small Vtick = high VC priority
		PacketLength: urgentLen,
	}
	all := append(append([]noc.FlowSpec(nil), bulk...), urgent)

	cfg := fig4Config()
	cfg.GBBufferFlits = 2 * bulkLen
	urgentGL := urgent
	urgentGL.Class = noc.GuaranteedLatency
	urgentGL.Rate = 0.05
	arbCfg := fig4SSVC
	arbCfg.EnableGL, arbCfg.GLVtick, arbCfg.GLBurst = true, noc.FlowSpec{Rate: urgentGL.Rate, PacketLength: urgentLen}.Vtick(), 2

	// The three schemes are independent simulations; fan them out.
	schemes := []struct {
		scheme
		urgent noc.FlowSpec
	}{
		{scheme{"OrigVC(no preemption)", family(core.ArbOriginalVirtualClock, fig4SSVC, all)}, urgent},
		{scheme{"PVC(threshold=64)", arbiters{build: func(out int) arb.Arbiter {
			return arb.NewPVC(fig4Radix, core.Vticks(fig4Radix, all, out), 64)
		}}}, urgent},
		{scheme{"SSVC+GL", family(core.ArbSSVC, arbCfg, all)}, urgentGL},
	}
	return runner.MapScratch(o.pool(), len(schemes), newSweepScratch,
		func(sc *sweepScratch, i int) PVCOutcome {
			s := schemes[i]
			ws := append(backlogged(bulk...), traffic.Workload{Spec: s.urgent, Inject: traffic.Inject.Periodic(701, 17)})
			col, sw, err := sc.row(cfg, s.arb, ws, o)
			oc := PVCOutcome{Scheme: s.name, Err: err}
			if col == nil {
				return oc
			}
			if f := col.Flow(stats.SpecKey(s.urgent)); f != nil {
				oc.UrgentMean = f.MeanNetworkLatency()
				oc.UrgentMax = f.LatMax
			}
			oc.Goodput = col.OutputThroughput(0)
			oc.Preemptions = sw.Preempted
			oc.WastedFlits = sw.WastedFlits
			return oc
		})
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
