package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/compose"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/mesh"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// IdleSkipRow reports one engine's event-driven skip accounting under a
// common low-load workload.
type IdleSkipRow struct {
	Engine       string
	OutputPorts  int    // output ports the full walk would touch per cycle
	Delivered    uint64 // packets delivered (identical to the full walk's)
	IdleCycles   uint64 // idle output-cycles, visited or skipped
	SkippedOut   uint64 // output-cycles bulk-accounted without a visit
	SkippedAdmit uint64 // admission scans skipped via the nonempty mask
	Cycles       noc.Cycle
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// SkipFraction returns the share of output-cycles the cycle loop never
// touched.
func (r IdleSkipRow) SkipFraction() float64 {
	return float64(r.SkippedOut) / (float64(r.OutputPorts) * float64(r.Cycles.Uint()))
}

// idleSkipLoad is the per-flow offered load of the idle-skip study.
const idleSkipLoad = 0.02

// IdleSkip measures the event-driven idle skipping (see DESIGN.md) on all
// three engines at 2% per-flow offered load: most ports are idle in most
// cycles, and the skip counters make the avoided work observable. The
// counters are deterministic — identical runs report identical skips —
// which golden tests pin alongside the delivery behavior. The three
// engines are independent sweep points.
func IdleSkip(o Options) []IdleSkipRow {
	o = o.withDefaults()
	engines := []func(Options) IdleSkipRow{idleSkipSwitch, idleSkipMesh, idleSkipClos}
	return runner.Map(o.pool(), len(engines), func(i int) IdleSkipRow { return engines[i](o) })
}

// idleSkipFlow is one low-rate GB flow of the study.
func idleSkipFlow(spec noc.FlowSpec, seed uint64) traffic.Workload {
	return traffic.Workload{Spec: spec, Inject: traffic.Inject.Bernoulli(idleSkipLoad, seed)}
}

// idleSkipSwitch is the radix-64 crossbar, one low-rate GB flow per input.
func idleSkipSwitch(o Options) IdleSkipRow {
	const radix = 64
	vticks := make([]core.VTime, radix)
	for i := range vticks {
		vticks[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick()
	}
	ws := make([]traffic.Workload, radix)
	for i := range ws {
		ws[i] = idleSkipFlow(noc.FlowSpec{Src: i, Dst: (i * 7) % radix,
			Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}, o.Seed+uint64(i))
	}
	var seq traffic.Sequence
	sw, err := crossbar(switchsim.Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
		func(int) arb.Arbiter {
			return core.NewSSVC(core.Config{
				Radix: radix, CounterBits: 12, SigBits: 4,
				Policy: core.SubtractRealTime, Vticks: vticks,
			})
		}, &seq, ws)
	if err != nil {
		return skipRow("switch radix-64", radix, &fabric.Counters{}, o.total(), err)
	}
	return skipRow("switch radix-64", radix, &sw.Counters, o.total(), run(sw, &seq, o, nil))
}

// idleSkipMesh is the 8x8 mesh, one low-rate GB flow per node.
func idleSkipMesh(o Options) IdleSkipRow {
	const w, h = 8, 8
	nodes := w * h
	ws := make([]traffic.Workload, nodes)
	for i := range ws {
		dst := (i*7 + 3) % nodes
		if dst == i {
			dst = (dst + 1) % nodes
		}
		ws[i] = idleSkipFlow(noc.FlowSpec{Src: i, Dst: dst, Class: noc.GuaranteedBandwidth, PacketLength: 4}, o.Seed+uint64(i))
	}
	m, err := mesh.New(mesh.Config{Width: w, Height: h, BufferFlits: 16})
	var seq traffic.Sequence
	if err := attach(m, err, &seq, ws); err != nil {
		return skipRow("mesh 8x8", nodes*5, &fabric.Counters{}, o.total(), err)
	}
	return skipRow("mesh 8x8", nodes*5, &m.Counters, o.total(), run(m, &seq, o, nil))
}

// idleSkipClos is the two-level Clos, one low-rate cross-leaf GB flow
// per terminal.
func idleSkipClos(o Options) IdleSkipRow {
	topo, err := compose.TwoLevelClos(4, 4, 2)
	ports := 0
	for _, p := range topo.Ports {
		ports += p
	}
	var net *compose.Network
	if err == nil {
		net, err = compose.New(compose.Config{Topology: topo, BufferFlits: 16})
	}
	var ws []traffic.Workload
	if err == nil {
		terms := net.Terminals()
		for i := 0; i < terms; i++ {
			ws = append(ws, idleSkipFlow(noc.FlowSpec{Src: i, Dst: (i + 5) % terms,
				Class: noc.GuaranteedBandwidth, PacketLength: 4}, o.Seed+uint64(i)))
		}
	}
	var seq traffic.Sequence
	if err := attach(net, err, &seq, ws); err != nil {
		return skipRow("clos 4x4x2", ports, &fabric.Counters{}, o.total(), err)
	}
	return skipRow("clos 4x4x2", ports, &net.Counters, o.total(), run(net, &seq, o, nil))
}

// skipRow extracts the skip accounting from one engine's counters.
func skipRow(engine string, ports int, c *fabric.Counters, cycles noc.Cycle, err error) IdleSkipRow {
	return IdleSkipRow{
		Engine:       engine,
		OutputPorts:  ports,
		Delivered:    c.Delivered,
		IdleCycles:   c.IdleCycles,
		SkippedOut:   c.SkippedOutputs,
		SkippedAdmit: c.SkippedAdmits,
		Cycles:       cycles,
		Err:          err,
	}
}

// IdleSkipTable renders the skip accounting across engines.
func IdleSkipTable(rows []IdleSkipRow) *stats.Table {
	t := stats.NewTable(
		"event-driven idle skipping: output-cycles and admission scans avoided at 2% load",
		"engine", "ports", "delivered", "idle cycles", "skipped outputs", "skipped admits", "skip frac")
	for _, r := range rows {
		if r.Err != nil {
			t.AddRow(r.Engine, "error", r.Err.Error(), "", "", "", "")
			continue
		}
		t.AddRow(r.Engine, r.OutputPorts, r.Delivered, r.IdleCycles, r.SkippedOut, r.SkippedAdmit,
			fmt.Sprintf("%.3f", r.SkipFraction()))
	}
	return t
}
