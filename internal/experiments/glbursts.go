package experiments

import (
	"fmt"
	"math"

	"swizzleqos/internal/core"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// GLBurstOutcome validates one flow's Eqs. 2-3 budget: a flow with
// latency constraint L_n sending bursts of floor(sigma_n) packets must
// never wait longer than L_n, even when every other GL flow bursts its
// own budget simultaneously.
type GLBurstOutcome struct {
	BudgetPkts float64 // sigma_n from Eqs. 2-3
	BurstSent  int     // floor(sigma_n), packets per burst
	// GL judges the flow's waits against its constraint L_n.
	GL stats.Verdict
}

// GLBurstsResult is the full Eqs. 2-3 validation.
type GLBurstsResult struct {
	LMax     int
	Outcomes []GLBurstOutcome
	// Err is set when the validation could not be constructed or the
	// run froze early; Outcomes is empty in the first case.
	Err error
}

// GLBursts validates the burst-size equations (§3.4, Eqs. 2-3) by
// simulation: four GL flows with staggered latency constraints each send
// synchronized bursts of exactly their admissible size while saturated GB
// background holds the channel; every flow must meet its own constraint.
func GLBursts(o Options) GLBurstsResult {
	o = o.withDefaults()
	const (
		radix = 8
		glLen = 4 // every GL packet is lmax flits, as Eqs. 2-3 assume
		gbLen = 4
		nGL   = 4
	)
	latencies := []float64{120, 240, 480, 960}
	budgets, err := glbound.BurstSizes(glLen, latencies)
	if err != nil {
		return GLBurstsResult{LMax: glLen, Err: fmt.Errorf("experiments: %w", err)}
	}
	res := GLBurstsResult{LMax: glLen}

	// GB background saturating the output.
	gbSpecs := make([]noc.FlowSpec, radix)
	for i := range gbSpecs {
		gbSpecs[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.08,
			PacketLength: gbLen,
		}
	}
	totalBurstPkts := 0
	bursts := make([]int, nGL)
	for i, b := range budgets {
		bursts[i] = int(math.Floor(b.MaxPackets))
		if bursts[i] < 1 {
			bursts[i] = 1
		}
		totalBurstPkts += bursts[i]
	}
	bufFlits := 0
	for _, b := range bursts {
		if f := b * glLen; f > bufFlits {
			bufFlits = f
		}
	}

	arbCfg := core.Config{Radix: radix, CounterBits: counterBits, SigBits: fig4SigBits, EnableGL: true,
		GLVtick: noc.FlowSpec{Rate: 0.10, PacketLength: glLen}.Vtick(), GLBurst: totalBurstPkts}
	cfg := fig4Config()
	cfg.GLBufferFlits = bufFlits

	ws := backlogged(gbSpecs[nGL:]...)
	// Synchronized bursts, spaced far enough apart for the policing
	// bucket and buffers to recover.
	gap := noc.CycleOf(uint64(20 * totalBurstPkts * (glLen + 1)))
	if gap < 4000 {
		gap = 4000
	}
	// Saturate instead of wrapping when gap exceeds the run length: an
	// empty schedule, not a burst at cycle 2^64-something.
	lastStart := noc.SatSub(o.total(), gap)
	var burstTimes []noc.Cycle
	for tm := o.Warmup; tm < lastStart; tm += gap {
		burstTimes = append(burstTimes, tm)
	}
	glSpecs := make([]noc.FlowSpec, nGL)
	for i := range glSpecs {
		glSpecs[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedLatency,
			Rate:         0.02,
			PacketLength: glLen,
		}
		var times []noc.Cycle
		for _, tm := range burstTimes {
			for k := 0; k < bursts[i]; k++ {
				times = append(times, tm)
			}
		}
		ws = append(ws, traffic.Workload{Spec: glSpecs[i], Inject: traffic.Inject.Trace(times...)})
	}
	var seq traffic.Sequence
	sw, err := crossbar(cfg, core.FromFlows(arbCfg, gbSpecs), &seq, ws)
	if err != nil {
		return GLBurstsResult{LMax: glLen, Err: err}
	}
	// A single simulation validates all four constraints at once (they
	// must burst simultaneously), so there is nothing to fan out here.
	col, err := runCollected(sw, &seq, o)
	res.Err = err
	for i, b := range budgets {
		res.Outcomes = append(res.Outcomes, GLBurstOutcome{BudgetPkts: b.MaxPackets, BurstSent: bursts[i],
			GL: col.GL(b.Latency, glSpecs[i])})
	}
	return res
}

// Table renders the validation.
func (r GLBurstsResult) Table() *stats.Table {
	t := stats.NewTable(
		"§3.4 Eqs. 2-3: admissible GL bursts, constraint vs measured worst wait (cycles)",
		"constraint L_n", "sigma_n(pkts)", "burst sent", "measured worst", "holds", "packets")
	// Unlike GLBound, a row holds without evidence: bench/expected.json
	// pins this table at a length where no burst lands. AllHold asks for
	// packets.
	for _, oc := range r.Outcomes {
		t.AddRow(fmt.Sprintf("%.0f", oc.GL.Bound), fmt.Sprintf("%.1f", oc.BudgetPkts),
			oc.BurstSent, fmt.Sprintf("%.0f", oc.GL.Worst), oc.GL.Failing == 0, oc.GL.Evidence)
	}
	return t
}

// AllHold reports whether every constraint held.
func (r GLBurstsResult) AllHold() bool {
	if r.Err != nil {
		return false
	}
	for _, oc := range r.Outcomes {
		if !oc.GL.Holds() {
			return false
		}
	}
	return true
}
