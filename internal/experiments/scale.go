package experiments

import (
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// ScaleResult summarises the radix-64 validation: a hotspot output with
// 31 reserved flows plus uniform background traffic across the other 63
// outputs, with a GL interrupt source cutting through the hotspot.
type ScaleResult struct {
	Radix            int
	HotspotFlows     int
	GB               stats.Verdict // the hotspot flows' reservations
	HotspotTotal     float64       // accepted flits/cycle at the hotspot
	BackgroundTotal  float64       // accepted flits/cycle across background outputs
	GL               stats.Verdict // the GL flow's waits against tau_GL
	DeliveredPackets uint64
	// Err is set when the switch could not be constructed or the run
	// froze early.
	Err error
}

// Scale64 exercises the headline scalability claim (§1: "readily scalable
// to 64 nodes"; §4.4): a full radix-64 switch with a 512-bit bus (8
// lanes: 6 GB levels + BE + GL), 31 differentiated reservations into one
// hotspot output, saturated offered load, uniform background traffic on
// every other input, and a GL flow with its Eq. 1 bound.
//
// One radix-64 switch is a single sequential simulation (cycles are
// causally ordered), so it is a sweep of one point: it runs as a job,
// like every other engine run, and a caller sharing a budget between
// experiments (Options.Pool) schedules it as one.
func Scale64(o Options) ScaleResult {
	o = o.withDefaults()
	return runner.Map(o.pool(), 1, func(int) ScaleResult { return scale64Run(o) })[0]
}

func scale64Run(o Options) ScaleResult {
	const (
		radix   = 64
		hotspot = 0
		gbLen   = 8
		glLen   = 4
		glBuf   = 16
	)
	res := ScaleResult{Radix: radix}

	// 31 hotspot flows from inputs 1..31 with reservations proportional
	// to 1/(i+1), scaled to 75% of the channel.
	var specs []noc.FlowSpec
	var weightSum float64
	for i := 1; i <= 31; i++ {
		weightSum += 1 / float64(i+1)
	}
	for i := 1; i <= 31; i++ {
		rate := (1 / float64(i+1)) / weightSum * 0.75
		specs = append(specs, noc.FlowSpec{
			Src: i, Dst: hotspot,
			Class:        noc.GuaranteedBandwidth,
			Rate:         rate,
			PacketLength: gbLen,
		})
	}
	res.HotspotFlows = len(specs)
	// Background: inputs 32..63 each send GB traffic to a distinct
	// non-hotspot output.
	for i := 32; i < radix; i++ {
		specs = append(specs, noc.FlowSpec{
			Src: i, Dst: i,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.5,
			PacketLength: gbLen,
		})
	}
	glSpec := noc.FlowSpec{
		Src: 63, Dst: hotspot,
		Class:        noc.GuaranteedLatency,
		Rate:         0.05,
		PacketLength: glLen,
	}

	// 512-bit bus, radix 64: 8 lanes; BE + GL leave 6 GB levels, so 2
	// significant bits (4 levels) fit.
	arbCfg := core.Config{Radix: radix, CounterBits: 10, SigBits: 2, EnableGL: true,
		GLVtick: noc.FlowSpec{Rate: 0.05, PacketLength: glLen}.Vtick(), GLBurst: glBuf / glLen}
	var glTimes []noc.Cycle
	for t := o.Warmup; t < o.total(); t += 5000 {
		glTimes = append(glTimes, t)
	}
	var seq traffic.Sequence
	sw, err := crossbar(switchsim.Config{
		Radix:         radix,
		BEBufferFlits: fig4BufFlits,
		GLBufferFlits: glBuf,
		GBBufferFlits: fig4BufFlits,
	}, core.FromFlows(arbCfg, specs), &seq,
		append(backlogged(specs...), traffic.Workload{Spec: glSpec, Inject: traffic.Inject.Trace(glTimes...)}))
	if err != nil {
		res.GB, res.Err = stats.GBNotRun(specs[:res.HotspotFlows]), err
		return res
	}

	col, err := runCollected(sw, &seq, o)
	res.Err = err
	res.GB = col.GB(specs[:res.HotspotFlows])
	res.HotspotTotal = col.OutputThroughput(hotspot)
	for out := 32; out < radix; out++ {
		res.BackgroundTotal += col.OutputThroughput(out)
	}
	res.GL = col.GL(glbound.Params{LMax: gbLen, LMin: glLen, NGL: 1, BufferFlits: glBuf}.MaxWait(), glSpec)
	res.DeliveredPackets = col.TotalPackets()
	return res
}

// Table renders the radix-64 summary.
func (r ScaleResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("§4.4 scale: radix-%d switch, %d reserved hotspot flows + uniform background", r.Radix, r.HotspotFlows),
		"metric", "value")
	t.AddRow("worst hotspot accepted/reserved", fmt.Sprintf("%.3f", r.GB.Worst))
	t.AddRow("hotspot throughput (flits/cycle)", fmt.Sprintf("%.3f", r.HotspotTotal))
	t.AddRow("background throughput (flits/cycle)", fmt.Sprintf("%.1f", r.BackgroundTotal))
	t.AddRow("GL worst wait (cycles)", fmt.Sprintf("%.0f", r.GL.Worst))
	t.AddRow("GL bound tau_GL (cycles)", fmt.Sprintf("%.0f", r.GL.Bound))
	t.AddRow("packets delivered", r.DeliveredPackets)
	return t
}
