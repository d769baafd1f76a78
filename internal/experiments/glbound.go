package experiments

import (
	"fmt"
	"math"

	"swizzleqos/internal/core"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// GLScenario is one guaranteed-latency contention scenario: NGL inputs
// fill their GL buffers simultaneously while the remaining inputs keep the
// output saturated with GB traffic.
type GLScenario struct {
	NGL           int
	GLPacketLen   int
	GLBufferFlits int
	GBPacketLen   int
}

// GLOutcome compares the analytic bound with the measured worst case:
// GL judges the GL flows' waits (enqueue to grant) against tau_GL from
// Eq. 1.
type GLOutcome struct {
	Scenario GLScenario
	GL       stats.Verdict
	// Err is set when the scenario could not be constructed or the run
	// froze early; the outcome does not hold in that case.
	Err error
}

// Holds reports whether the bound held on evidence in a run that did not
// fail.
func (o GLOutcome) Holds() bool { return o.Err == nil && o.GL.Holds() }

// GLBoundResult aggregates the §3.4 validation scenarios.
type GLBoundResult struct {
	Outcomes []GLOutcome
}

// GLBoundScenarios returns the default validation matrix.
func GLBoundScenarios() []GLScenario {
	return []GLScenario{
		{NGL: 1, GLPacketLen: 4, GLBufferFlits: 16, GBPacketLen: 8},
		{NGL: 2, GLPacketLen: 4, GLBufferFlits: 16, GBPacketLen: 8},
		{NGL: 4, GLPacketLen: 4, GLBufferFlits: 16, GBPacketLen: 8},
		{NGL: 8, GLPacketLen: 4, GLBufferFlits: 16, GBPacketLen: 8},
		{NGL: 4, GLPacketLen: 1, GLBufferFlits: 4, GBPacketLen: 8},
		{NGL: 4, GLPacketLen: 8, GLBufferFlits: 16, GBPacketLen: 8},
	}
}

// GLBound validates Eq. 1 empirically: for every scenario it arranges the
// adversarial worst case — all NGL inputs' GL buffers filling in the same
// cycle while saturated GB flows hold the channel — and checks that no GL
// packet ever waits longer than tau_GL = lmax + NGL*(b + b/lmin).
func GLBound(o Options) GLBoundResult {
	o = o.withDefaults()
	scenarios := GLBoundScenarios()
	return GLBoundResult{
		Outcomes: runner.Map(o.pool(), len(scenarios), func(i int) GLOutcome {
			return glBoundRun(scenarios[i], o)
		}),
	}
}

func glBoundRun(sc GLScenario, o Options) GLOutcome {
	lmax := sc.GBPacketLen
	if sc.GLPacketLen > lmax {
		lmax = sc.GLPacketLen
	}
	params := glbound.Params{
		LMax:        lmax,
		LMin:        sc.GLPacketLen,
		NGL:         sc.NGL,
		BufferFlits: sc.GLBufferFlits,
	}
	if err := params.Validate(); err != nil {
		return GLOutcome{Scenario: sc, Err: fmt.Errorf("experiments: %w", err)}
	}
	out := GLOutcome{Scenario: sc, GL: stats.Verdict{At: -1, Bound: params.MaxWait()}}

	// GB background: all eight inputs saturate the output with modest
	// reservations, so a GB packet is always mid-flight when the GL
	// burst lands.
	gbSpecs := make([]noc.FlowSpec, fig4Radix)
	for i := range gbSpecs {
		gbSpecs[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.08,
			PacketLength: sc.GBPacketLen,
		}
	}
	pktsPerBuf := sc.GLBufferFlits / sc.GLPacketLen
	arbCfg := fig4SSVC
	arbCfg.EnableGL = true
	// The leaky bucket must admit one full adversarial burst; long-run
	// policing is exercised separately.
	arbCfg.GLVtick, arbCfg.GLBurst = noc.VTimeOf(uint64(sc.GLPacketLen*20)), sc.NGL*pktsPerBuf
	cfg := fig4Config()
	cfg.GLBufferFlits = sc.GLBufferFlits

	ws := backlogged(gbSpecs...)
	// GL bursts: every input fills its buffer at the same instants,
	// several times per run, spaced far enough apart for policing and
	// buffers to recover.
	burstTimes := []noc.Cycle{}
	gap := noc.CycleOf(uint64(40 * sc.NGL * pktsPerBuf * (sc.GLPacketLen + 1)))
	if gap < 2000 {
		gap = 2000
	}
	// At very short runs gap can exceed the total; the saturating
	// subtraction yields an empty schedule instead of wrapping.
	lastStart := noc.SatSub(o.total(), gap)
	for tm := o.Warmup; tm < lastStart; tm += gap {
		burstTimes = append(burstTimes, tm)
	}
	if len(burstTimes) == 0 {
		burstTimes = append(burstTimes, o.Warmup)
	}
	glSpecs := make([]noc.FlowSpec, sc.NGL)
	for i := range glSpecs {
		glSpecs[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedLatency,
			Rate:         0.05,
			PacketLength: sc.GLPacketLen,
		}
		times := make([]noc.Cycle, 0, len(burstTimes)*pktsPerBuf)
		for _, tm := range burstTimes {
			for k := 0; k < pktsPerBuf; k++ {
				times = append(times, tm)
			}
		}
		ws = append(ws, traffic.Workload{Spec: glSpecs[i], Inject: traffic.Inject.Trace(times...)})
	}
	var seq traffic.Sequence
	sw, err := crossbar(cfg, core.FromFlows(arbCfg, gbSpecs), &seq, ws)
	if err != nil {
		out.Err = err
		return out
	}
	col, err := runCollected(sw, &seq, o)
	out.GL, out.Err = col.GL(out.GL.Bound, glSpecs...), err
	return out
}

// Table renders predicted vs measured worst-case GL waiting time.
func (r GLBoundResult) Table() *stats.Table {
	t := stats.NewTable("§3.4 Eq. 1: guaranteed-latency bound, predicted vs measured worst wait (cycles)",
		"NGL", "GL pkt(flits)", "buffer b(flits)", "tau_GL predicted", "measured worst", "holds", "GL packets")
	for _, o := range r.Outcomes {
		t.AddRow(o.Scenario.NGL, o.Scenario.GLPacketLen, o.Scenario.GLBufferFlits,
			fmt.Sprintf("%.0f", o.GL.Bound), fmt.Sprintf("%.0f", o.GL.Worst), o.Holds(), o.GL.Evidence)
	}
	return t
}

// AllHold reports whether the bound held in every scenario.
func (r GLBoundResult) AllHold() bool {
	for _, o := range r.Outcomes {
		if !o.Holds() {
			return false
		}
	}
	return true
}

// Tightness returns the largest measured/predicted ratio — how close the
// worst case comes to the analytic bound.
func (r GLBoundResult) Tightness() float64 {
	worst := 0.0
	for _, o := range r.Outcomes {
		worst = math.Max(worst, o.GL.Worst/o.GL.Bound)
	}
	return worst
}
