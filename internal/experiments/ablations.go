package experiments

import (
	"errors"
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// ChainingOutcome compares saturated throughput with and without packet
// chaining for one packet length.
type ChainingOutcome struct {
	PacketLen   int
	Plain       float64 // accepted flits/cycle
	Chained     float64
	TheoryPlain float64 // L/(L+1)
	// Err joins the terminal errors of the pair of runs, if any froze.
	Err error
}

// AblationChaining quantifies the arbitration-cycle loss the paper
// mentions in §4.2 and its recovery by packet chaining [10]: a saturated
// output moving L-flit packets reaches L/(L+1) flits/cycle without
// chaining and ~1.0 with it. Short packets suffer most.
func AblationChaining(o Options) []ChainingOutcome {
	o = o.withDefaults()
	lens := []int{1, 2, 4, 8, 16}
	// Two independent runs (plain, chained) per packet length, fanned as
	// one flat job list and reassembled per length.
	results := runner.MapScratch(o.pool(), 2*len(lens), newSweepScratch,
		func(sc *sweepScratch, i int) chainingPoint {
			return chainingRun(sc, lens[i/2], i%2 == 1, o)
		})
	out := make([]ChainingOutcome, len(lens))
	for i, l := range lens {
		out[i] = ChainingOutcome{
			PacketLen:   l,
			TheoryPlain: float64(l) / float64(l+1),
			Plain:       results[2*i].throughput,
			Chained:     results[2*i+1].throughput,
			Err:         errors.Join(results[2*i].err, results[2*i+1].err),
		}
	}
	return out
}

// chainingPoint is one run's saturated throughput plus its error, if any.
type chainingPoint struct {
	throughput float64
	err        error
}

func chainingRun(sc *sweepScratch, packetLen int, chaining bool, o Options) chainingPoint {
	cfg := fig4Config()
	cfg.PacketChaining = chaining
	if cfg.GBBufferFlits < 2*packetLen {
		cfg.GBBufferFlits = 2 * packetLen
	}
	specs := make([]noc.FlowSpec, fig4Radix)
	for i := range specs {
		specs[i] = noc.FlowSpec{Src: i, Dst: 0, Class: noc.BestEffort, PacketLength: packetLen}
	}
	col, _, err := sc.row(cfg, family(core.ArbLRG, fig4SSVC, nil), backlogged(specs...), o)
	if col == nil {
		return chainingPoint{err: err}
	}
	return chainingPoint{throughput: col.OutputThroughput(0), err: err}
}

// ChainingTable renders the chaining ablation.
func ChainingTable(outcomes []ChainingOutcome) *stats.Table {
	t := stats.NewTable("Ablation: arbitration-cycle loss and packet chaining (saturated output, LRG)",
		"packet(flits)", "plain", "theory L/(L+1)", "chained")
	for _, oc := range outcomes {
		t.AddRow(oc.PacketLen, fmt.Sprintf("%.3f", oc.Plain),
			fmt.Sprintf("%.3f", oc.TheoryPlain), fmt.Sprintf("%.3f", oc.Chained))
	}
	return t
}

// FixedPriorityOutcome contrasts the prior 4-level fixed-priority QoS [14]
// with SSVC for a high-priority aggressor and a low-priority victim.
type FixedPriorityOutcome struct {
	Scheme            string
	AggressorAccepted float64
	VictimAccepted    float64
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// AblationFixedPriority reproduces the §2.2 comparison with the prior
// Swizzle Switch QoS: under fixed priority a persistent high-level flow
// starves the low level entirely, and inputs cannot control how much
// bandwidth a level receives; SSVC instead holds the aggressor to its
// reservation and keeps serving the victim.
func AblationFixedPriority(o Options) []FixedPriorityOutcome {
	o = o.withDefaults()
	// Aggressor reserves 30% but demands everything; victim reserves
	// 30% and demands everything too.
	specs := []noc.FlowSpec{
		{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.3, PacketLength: 8},
		{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.3, PacketLength: 8},
	}
	schemes := []scheme{
		{"FixedPriority[14]", arbiters{build: func(int) arb.Arbiter {
			// Message priority by input: input 0 is the high level.
			return arb.NewMultiLevel(fig4Radix, func(r arb.Request) int { return -r.Input })
		}}},
		{"SSVC", family(core.ArbSSVC, fig4SSVC, specs)},
	}
	return runner.MapScratch(o.pool(), len(schemes), newSweepScratch,
		func(sc *sweepScratch, i int) FixedPriorityOutcome {
			col, _, err := sc.row(fig4Config(), schemes[i].arb, backlogged(specs...), o)
			oc := FixedPriorityOutcome{Scheme: schemes[i].name, Err: err}
			if col != nil {
				oc.AggressorAccepted = col.Throughput(stats.SpecKey(specs[0]))
				oc.VictimAccepted = col.Throughput(stats.SpecKey(specs[1]))
			}
			return oc
		})
}

// FixedPriorityTable renders the starvation ablation.
func FixedPriorityTable(outcomes []FixedPriorityOutcome) *stats.Table {
	t := stats.NewTable("Ablation: fixed-priority starvation vs SSVC (both flows reserve 30%, both saturated)",
		"scheme", "aggressor (flits/cyc)", "victim (flits/cyc)")
	for _, oc := range outcomes {
		t.AddRow(oc.Scheme, fmt.Sprintf("%.3f", oc.AggressorAccepted), fmt.Sprintf("%.3f", oc.VictimAccepted))
	}
	return t
}

// StaticOutcome measures channel utilisation when half the flows go idle.
type StaticOutcome struct {
	Scheme      string
	Utilisation float64 // accepted / effective capacity
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// AblationStaticSchedulers demonstrates §2.2's criticism of static
// schemes: when half the reserved flows fall silent, true TDM and a
// fixed WRR schedule waste the idle slots ("that time slot is wasted and
// results in link underutilization"), while DWRR, WFQ, and SSVC hand the
// leftover to the backlogged flows.
func AblationStaticSchedulers(o Options) []StaticOutcome {
	o = o.withDefaults()
	const packetLen = 8
	wf := uniform(fig4Radix, 0.1)
	specs := intoOutput0(packetLen, wf...)
	weights := make([]int, fig4Radix)
	quanta := make([]int, fig4Radix)
	for i := range weights {
		weights[i] = packetLen
		quanta[i] = packetLen
	}
	capacity := float64(packetLen) / float64(packetLen+1)
	// Only the even inputs offer traffic.
	var offered []traffic.Workload
	for i := 0; i < fig4Radix; i += 2 {
		offered = append(offered, backlogged(specs[i])...)
	}
	schemes := []scheme{
		{"TDM", arbiters{build: func(int) arb.Arbiter { return arb.NewTDM(arb.UniformTDMTable(fig4Radix, packetLen+1)) }}},
		{"WRR(fixed)", arbiters{build: func(int) arb.Arbiter { return arb.NewWRR(weights, false) }}},
		{"WRR(work-conserving)", arbiters{build: func(int) arb.Arbiter { return arb.NewWRR(weights, true) }}},
		{"DWRR", arbiters{build: func(int) arb.Arbiter { return arb.NewDWRR(quanta) }}},
		{"WFQ", arbiters{build: func(int) arb.Arbiter { return arb.NewWFQ(wf) }}},
		{"SSVC", family(core.ArbSSVC, fig4SSVC, specs)},
	}
	return runner.MapScratch(o.pool(), len(schemes), newSweepScratch,
		func(sc *sweepScratch, i int) StaticOutcome {
			col, _, err := sc.row(fig4Config(), schemes[i].arb, offered, o)
			oc := StaticOutcome{Scheme: schemes[i].name, Err: err}
			if col != nil {
				oc.Utilisation = col.OutputThroughput(0) / capacity
			}
			return oc
		})
}

// StaticTable renders the leftover-bandwidth ablation.
func StaticTable(outcomes []StaticOutcome) *stats.Table {
	t := stats.NewTable("Ablation: channel utilisation when half the reserved flows go idle",
		"scheme", "utilisation")
	for _, oc := range outcomes {
		t.AddRow(oc.Scheme, fmt.Sprintf("%.3f", oc.Utilisation))
	}
	return t
}

// SigBitsOutcome records adherence accuracy for one thermometer
// resolution.
type SigBitsOutcome struct {
	SigBits    int
	Levels     int
	WorstRatio float64 // min accepted/reserved across flows
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// AblationSigBits sweeps the number of significant auxVC bits (§4.4: "the
// accuracy of the SSVC technique increases with more lanes of
// arbitration") using the Figure 4 reservation mix scaled into capacity.
func AblationSigBits(o Options) []SigBitsOutcome {
	o = o.withDefaults()
	rates := []float64{0.3, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05}
	specs := intoOutput0(fig4PacketLen, rates...)
	return runner.MapScratch(o.pool(), 6, newSweepScratch,
		func(sc *sweepScratch, idx int) SigBitsOutcome {
			sig := idx + 1
			cfg := fig4SSVC
			cfg.SigBits = sig
			col, _, err := sc.row(fig4Config(), family(core.ArbSSVC, cfg, specs), backlogged(specs...), o)
			oc := SigBitsOutcome{SigBits: sig, Levels: 1 << sig, Err: err}
			if col != nil {
				oc.WorstRatio = col.GB(specs).Worst
			}
			return oc
		})
}

// SigBitsTable renders the resolution sweep.
func SigBitsTable(outcomes []SigBitsOutcome) *stats.Table {
	t := stats.NewTable("Ablation: thermometer resolution vs reservation accuracy (Fig 4 mix, saturated)",
		"sig bits", "levels (lanes)", "worst accepted/reserved")
	for _, oc := range outcomes {
		t.AddRow(oc.SigBits, oc.Levels, fmt.Sprintf("%.3f", oc.WorstRatio))
	}
	return t
}
