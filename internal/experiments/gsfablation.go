package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/gsf"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// GSFOutcome summarises one scheme's behaviour on the saturated
// reservation mix.
type GSFOutcome struct {
	Scheme      string
	GB          stats.Verdict // every flow's reservation
	Utilisation float64       // accepted / effective channel capacity
	Throttled   uint64        // GSF only: source-throttled admissions
	Retired     uint64        // GSF only: frames recycled
	// Err is set when the switch could not be constructed or the run
	// froze early.
	Err error
}

// AblationGSF compares SSVC with the §2.2 frame-based alternative,
// Globally Synchronized Frames: both enforce reservations, but GSF pays
// for its global barrier — every barrier cycle is dead time that dilutes
// both the guarantees and the channel utilisation, and the cost grows
// with the barrier network's latency. SSVC's arbitration is local to the
// switch and pays nothing.
func AblationGSF(o Options) []GSFOutcome {
	o = o.withDefaults()
	rates := []float64{0.3, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05}
	specs := intoOutput0(fig4PacketLen, rates...)
	capacity := float64(fig4PacketLen) / float64(fig4PacketLen+1)

	measure := func(name string, cfg switchsim.Config, factory func(int) arb.Arbiter,
		ctl *gsf.Controller) GSFOutcome {
		sw, err := switchsim.New(cfg, factory)
		var seq traffic.Sequence
		if err := attach(sw, err, &seq, backlogged(specs...)); err != nil {
			return GSFOutcome{Scheme: name, GB: stats.GBNotRun(specs), Err: err}
		}
		col := stats.NewCollector(o.Warmup, o.total())
		observe := col.OnDeliver
		if ctl != nil {
			observe = func(p *noc.Packet) {
				col.OnDeliver(p)
				ctl.Delivered(p)
			}
		}
		oc := GSFOutcome{Scheme: name, Err: run(sw, &seq, o, observe)}
		oc.GB = col.GB(specs)
		// A float sum in spec order, not OutputThroughput's integer one:
		// the two can differ in the last printed digit.
		var total float64
		for _, s := range specs {
			total += col.Throughput(stats.SpecKey(s))
		}
		oc.Utilisation = total / capacity
		if ctl != nil {
			oc.Throttled = ctl.Throttled
			oc.Retired = ctl.Retired
		}
		return oc
	}

	// Job 0 is the SSVC reference; jobs 1..4 are GSF at increasing
	// barrier latencies. Each job builds its own controller and switch,
	// so the five simulations fan out independently.
	barriers := []noc.Cycle{0, 256, 512, 1024}
	return runner.Map(o.pool(), 1+len(barriers), func(i int) GSFOutcome {
		if i == 0 {
			return measure("SSVC", fig4Config(), core.FromFlows(fig4SSVC, specs), nil)
		}
		barrier := barriers[i-1]
		// Frame capacity 320 keeps every budget a whole number of
		// 8-flit packets (16..96 flits); a single-frame window makes
		// the barrier latency visible — with a deep window, admission
		// into later frames hides it entirely.
		ctl := gsf.NewController(gsf.Config{
			Inputs:         fig4Radix,
			FrameFlits:     320,
			Window:         1,
			BarrierLatency: barrier,
			Rates:          rates,
		})
		cfg := fig4Config()
		cfg.AdmissionGate = ctl.Admit
		return measure(fmt.Sprintf("GSF(barrier=%d)", barrier), cfg,
			func(int) arb.Arbiter { return gsf.NewArbiter(fig4Radix, ctl) }, ctl)
	})
}

// GSFTable renders the comparison.
func GSFTable(outcomes []GSFOutcome) *stats.Table {
	t := stats.NewTable(
		"§2.2 frame-based QoS: GSF vs SSVC on the saturated reservation mix (sum 85%)",
		"scheme", "worst accepted/reserved", "utilisation", "throttled", "frames retired")
	for _, oc := range outcomes {
		t.AddRow(oc.Scheme, fmt.Sprintf("%.3f", oc.GB.Worst),
			fmt.Sprintf("%.3f", oc.Utilisation), oc.Throttled, oc.Retired)
	}
	return t
}
