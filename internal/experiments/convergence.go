package experiments

import (
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// ConvergenceOutcome describes one scheduler's transient behaviour when a
// large-reservation flow wakes up in a previously slack-filled channel.
type ConvergenceOutcome struct {
	Scheme string
	// IdleUtilisation is the channel utilisation while the reserved
	// flow sleeps (Virtual Clock's promise: idle reservations are
	// redistributed, not wasted).
	IdleUtilisation float64
	// ConvergenceWindows is how many measurement windows after wake-up
	// the flow needs to reach 95% of its reservation; -1 if never.
	ConvergenceWindows int
	// SteadyThroughput is the flow's throughput once converged (last
	// window).
	SteadyThroughput float64
	// Err is set when the switch could not be constructed or the run
	// froze early.
	Err error
}

// Convergence measures how Virtual Clock handles workload transients, the
// property that separates it from TDM (§2.2: "Unlike TDM, Virtual Clock
// makes efficient use of link capacity by redistributing idle time
// slots"). A flow reserving 40% of an output sleeps for the first half of
// the run while four 10%-reserved flows stay saturated; at wake-up it
// floods in. The channel must stay fully utilised while it sleeps, and
// its reservation must be re-established promptly (Virtual Clock's
// max(auxVC, now) rule prevents both banked priority and lasting
// punishment). LRG is the contrast: full utilisation but no reservation
// to converge to.
func Convergence(o Options) []ConvergenceOutcome {
	o = o.withDefaults()
	const (
		windowLen = 500
		bigRate   = 0.40
	)
	wake := o.Warmup + o.Cycles/2
	specs := []noc.FlowSpec{
		{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: bigRate, PacketLength: fig4PacketLen},
	}
	for i := 1; i <= 4; i++ {
		specs = append(specs, noc.FlowSpec{
			Src: i, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.10, PacketLength: fig4PacketLen,
		})
	}

	// The two schemes are independent simulations; fan them out.
	schemes := []scheme{
		{"SSVC", family(core.ArbSSVC, fig4SSVC, specs)},
		{"LRG", family(core.ArbLRG, fig4SSVC, specs)},
	}
	return runner.Map(o.pool(), len(schemes), func(i int) ConvergenceOutcome {
		name := schemes[i].name
		sw, err := schemes[i].arb.crossbar(fig4Config())
		var seq traffic.Sequence
		if err == nil {
			// The big flow injects nothing until wake-up, then saturates;
			// no injection kind describes that, so it is added by hand,
			// ahead of the others.
			err = sw.AddFlow(traffic.Flow{Spec: specs[0], Gen: &gatedBacklog{
				Backlogged: traffic.NewBacklogged(&seq, specs[0], 4),
				gate:       wake,
			}})
		}
		if err := attach(sw, err, &seq, backlogged(specs[1:]...)); err != nil {
			return ConvergenceOutcome{Scheme: name, ConvergenceWindows: -1, Err: err}
		}
		series := stats.NewSeries(windowLen)
		oc := ConvergenceOutcome{Scheme: name, ConvergenceWindows: -1, Err: run(sw, &seq, o, series.OnDeliver)}
		key := stats.SpecKey(specs[0])
		// Idle-phase utilisation, skipping warmup.
		first := int((o.Warmup / windowLen).Uint()) + 1
		lastIdle := int((wake / windowLen).Uint()) - 1
		var util float64
		var n int
		for w := first; w <= lastIdle; w++ {
			util += series.TotalThroughput(0, w)
			n++
		}
		if n > 0 {
			oc.IdleUtilisation = util / float64(n)
		}
		wakeWin := int((wake / windowLen).Uint())
		if hit := series.FirstWindowAtLeast(key, wakeWin, bigRate*recoveredShare); hit >= 0 {
			oc.ConvergenceWindows = hit - wakeWin
		}
		oc.SteadyThroughput = series.Throughput(key, series.Windows()-2)
		return oc
	})
}

// gatedBacklog is a backlogged source that stays silent before cycle gate.
type gatedBacklog struct {
	*traffic.Backlogged
	gate noc.Cycle
}

var _ traffic.Scheduler = (*gatedBacklog)(nil)

// Tick implements traffic.Generator.
func (g *gatedBacklog) Tick(now noc.Cycle, queued int) *noc.Packet {
	if now < g.gate {
		return nil
	}
	return g.Backlogged.Tick(now, queued)
}

// NextArrival implements traffic.Scheduler; Emit is the inner source's.
func (g *gatedBacklog) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	return g.Backlogged.NextArrival(max(from, g.gate), queued)
}

// ConvergenceTable renders the transient comparison.
func ConvergenceTable(outcomes []ConvergenceOutcome) *stats.Table {
	t := stats.NewTable(
		"Convergence: 40%-reserved flow wakes at half-run over four saturated 10% flows",
		"scheme", "idle-phase utilisation", "windows to 95% of reservation (500 cyc)", "steady throughput")
	for _, oc := range outcomes {
		conv := fmt.Sprint(oc.ConvergenceWindows)
		if oc.ConvergenceWindows < 0 {
			conv = "never"
		}
		t.AddRow(oc.Scheme, fmt.Sprintf("%.3f", oc.IdleUtilisation), conv,
			fmt.Sprintf("%.3f", oc.SteadyThroughput))
	}
	return t
}
