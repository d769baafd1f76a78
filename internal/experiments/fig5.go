package experiments

import (
	"errors"
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
)

// Fig5Policies names the four curves of Figure 5 in plot order.
var Fig5Policies = []string{"OriginalVC", "SubtractRealClock", "DivideBy2", "Reset"}

// fig5Arbiters are the arbiters behind Fig5Policies, curve by curve, on
// the Figure 5 geometry: original Virtual Clock (the policy is SSVC's
// alone), then SSVC under each counter policy, whose String names the
// curve.
var fig5Arbiters = []struct {
	family core.Arbitration
	policy core.CounterPolicy
}{
	{core.ArbOriginalVirtualClock, core.SubtractRealTime},
	{core.ArbSSVC, core.SubtractRealTime},
	{core.ArbSSVC, core.Halve},
	{core.ArbSSVC, core.Reset},
}

// Fig5Allocations are the per-flow reserved fractions (percent of the
// output channel) whose latency is measured. They sum to 85%, inside the
// channel's effective capacity (8/9 with 8-flit packets), so every
// reservation is honourable even with all inputs congested.
var Fig5Allocations = []float64{1, 2, 4, 5, 8, 10, 15, 40}

// Fig5Point records the mean packet latency of the flow with the given
// allocation under each policy.
type Fig5Point struct {
	AllocationPct float64
	MeanLatency   map[string]float64
}

// Fig5Result is the full latency-vs-allocation sweep.
type Fig5Result struct {
	Points []Fig5Point
	// Err joins the terminal errors of any policy runs that froze early
	// (nil on a healthy sweep).
	Err error
}

// Fig5 reproduces Figure 5: eight congested GB flows with reserved rates
// from 1% to 40% of one output channel, under the original Virtual Clock
// algorithm and the three SSVC finite-counter policies. Every input is
// backlogged (bursty demand beyond its reservation), so the scheduler's
// service order alone determines how long packets sit in the input
// buffer. Original Virtual Clock serves each flow exactly at its reserved
// rate, so latency scales with 1/rate and low-allocation flows suffer;
// SSVC's coarse thermometer comparison plus LRG tie-breaking redistributes
// slack toward low-rate flows, flattening the curve at the cost of some
// latency for large allocations; the Reset policy has the least variance
// across allocations (§4.3). The reported metric is network latency —
// input-buffer arrival to delivery — the quantity the switch controls.
func Fig5(o Options) Fig5Result {
	o = o.withDefaults()
	res := Fig5Result{Points: make([]Fig5Point, len(Fig5Allocations))}
	for i, a := range Fig5Allocations {
		res.Points[i] = Fig5Point{AllocationPct: a, MeanLatency: make(map[string]float64)}
	}
	// The four policy curves are independent simulations; fan them out.
	lats := runner.MapScratch(o.pool(), len(Fig5Policies), newSweepScratch,
		func(sc *sweepScratch, i int) fig5Curve {
			return fig5Run(sc, i, o)
		})
	for pi, policy := range Fig5Policies {
		for i := range res.Points {
			res.Points[i].MeanLatency[policy] = lats[pi].lats[i]
		}
		res.Err = errors.Join(res.Err, lats[pi].err)
	}
	return res
}

// fig5Curve is one policy's latency column plus its run error, if any.
type fig5Curve struct {
	lats []float64
	err  error
}

// fig5Specs are the Figure 5 mix: input i reserves Fig5Allocations[i]
// percent of output 0.
func fig5Specs() []noc.FlowSpec {
	specs := make([]noc.FlowSpec, fig4Radix)
	for i, a := range Fig5Allocations {
		specs[i] = noc.FlowSpec{Src: i, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: a / 100, PacketLength: fig4PacketLen}
	}
	return specs
}

// fig5Run measures one curve of Figure 5.
func fig5Run(sc *sweepScratch, curve int, o Options) fig5Curve {
	specs := fig5Specs()
	a := fig5Arbiters[curve]
	col, _, err := sc.row(fig4Config(), family(a.family, fig5SSVC(a.policy), specs), backlogged(specs...), o)
	out := make([]float64, len(specs))
	if col == nil {
		return fig5Curve{lats: out, err: err}
	}
	for i, s := range specs {
		if f := col.Flow(stats.SpecKey(s)); f != nil {
			out[i] = f.MeanNetworkLatency()
		}
	}
	return fig5Curve{lats: out, err: err}
}

// Table renders the latency matrix, one row per allocation.
func (r Fig5Result) Table() *stats.Table {
	headers := []string{"allocation(%)"}
	headers = append(headers, Fig5Policies...)
	t := stats.NewTable("Figure 5: mean packet latency (cycles) vs bandwidth allocation", headers...)
	for _, p := range r.Points {
		cells := []any{fmt.Sprintf("%.0f", p.AllocationPct)}
		for _, pol := range Fig5Policies {
			cells = append(cells, fmt.Sprintf("%.1f", p.MeanLatency[pol]))
		}
		t.AddRow(cells...)
	}
	return t
}

// LatencySpread returns max/min mean latency across allocations for one
// policy — the variance measure the paper uses to rank the counter
// policies ("the reset to zero method has the least variance").
func (r Fig5Result) LatencySpread(policy string) float64 {
	lo, hi := 0.0, 0.0
	for i, p := range r.Points {
		l := p.MeanLatency[policy]
		if i == 0 || l < lo {
			lo = l
		}
		if i == 0 || l > hi {
			hi = l
		}
	}
	if lo == 0 {
		return 0
	}
	return hi / lo
}

// LowAllocationLatency returns the mean latency of the smallest
// allocation (1%) under the given policy — the headline number SSVC
// improves over the original Virtual Clock.
func (r Fig5Result) LowAllocationLatency(policy string) float64 {
	return r.Points[0].MeanLatency[policy]
}
