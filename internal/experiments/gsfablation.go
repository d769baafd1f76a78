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
	WorstRatio  float64 // min accepted/reserved across flows
	Utilisation float64 // accepted / effective channel capacity
	Throttled   uint64  // GSF only: source-throttled admissions
	Retired     uint64  // GSF only: frames recycled
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
	specs := make([]noc.FlowSpec, fig4Radix)
	for i, r := range rates {
		specs[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedBandwidth,
			Rate:         r,
			PacketLength: fig4PacketLen,
		}
	}
	capacity := float64(fig4PacketLen) / float64(fig4PacketLen+1)

	run := func(name string, cfg switchsim.Config, factory func(int) arb.Arbiter,
		ctl *gsf.Controller) GSFOutcome {
		var seq traffic.Sequence
		sw, err := crossbar(cfg, factory, &seq, backlogged(specs...))
		if err != nil {
			return GSFOutcome{Scheme: name, Err: err}
		}
		col := stats.NewCollector(o.Warmup, o.total())
		sw.OnDeliver(func(p *noc.Packet) {
			col.OnDeliver(p)
			if ctl != nil {
				ctl.Delivered(p)
			}
		})
		sw.OnRelease(seq.Recycle)
		sw.Run(o.total())
		oc := GSFOutcome{Scheme: name, WorstRatio: 1e9, Err: sw.Err()}
		var total float64
		for i, r := range rates {
			got := col.Throughput(stats.FlowKey{Src: i, Dst: 0, Class: noc.GuaranteedBandwidth})
			total += got
			if ratio := got / r; ratio < oc.WorstRatio {
				oc.WorstRatio = ratio
			}
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
			return run("SSVC", fig4Config(), core.FromFlows(fig4SSVC, specs), nil)
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
		return run(fmt.Sprintf("GSF(barrier=%d)", barrier), cfg,
			func(int) arb.Arbiter { return gsf.NewArbiter(fig4Radix, ctl) }, ctl)
	})
}

// GSFTable renders the comparison.
func GSFTable(outcomes []GSFOutcome) *stats.Table {
	t := stats.NewTable(
		"§2.2 frame-based QoS: GSF vs SSVC on the saturated reservation mix (sum 85%)",
		"scheme", "worst accepted/reserved", "utilisation", "throttled", "frames retired")
	for _, oc := range outcomes {
		t.AddRow(oc.Scheme, fmt.Sprintf("%.3f", oc.WorstRatio),
			fmt.Sprintf("%.3f", oc.Utilisation), oc.Throttled, oc.Retired)
	}
	return t
}
