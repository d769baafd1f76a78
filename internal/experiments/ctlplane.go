package experiments

import (
	"fmt"

	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
)

// CtlPlaneOutcome is one budget-shrink policy's behaviour under
// reservation churn: leased admissions, over-budget rejections, a
// mid-run budget shrink, and deterministic lease expirations, all
// applied live through the control plane.
type CtlPlaneOutcome struct {
	Policy    string
	Admitted  uint64
	Rejected  uint64
	Expired   uint64
	Revoked   uint64
	Adherence float64 // churn flow accepted/reserved over the whole run (>1 = excess bandwidth)
	Delivered uint64
	TraceHash uint64
	Err       error
}

// ctlPlaneSchedule lays the command churn out at fixed fractions of the
// run so short runs and full-length goldens exercise the same
// story: long-lived reservations first, then a doomed over-budget add,
// a leased add that expires mid-run, a closed-loop add, a resize, the
// budget shrink that splits the two policies, a second leased add, and
// a doomed GL add.
func ctlPlaneSchedule(o Options) ([]ctlplane.Scheduled, error) {
	total := o.total()
	at := func(num, den uint64) noc.Cycle { return total / noc.CycleOf(den) * noc.CycleOf(num) }
	lines := []struct {
		at  noc.Cycle
		cmd string
	}{
		{at(1, 50), "add gb 0 1 rate=0.30 len=8 load=0.60"},
		{at(1, 50), "add gb 2 1 rate=0.25 len=8 load=0.50"},
		{at(1, 50), "add gl 3 1 rate=0.03 len=4 latency=400 burst=2"},
		{at(1, 10), "add gb 4 1 rate=0.50 len=8"}, // over budget: rejected
		{at(1, 8), fmt.Sprintf("add gb 4 1 rate=0.20 len=8 load=0.40 lease=%d", at(1, 4).Uint())},
		{at(1, 4), "add gb 5 2 rate=0.40 len=8 users=4"},
		{at(3, 8), "resize 2 rate=0.15"},
		{at(1, 2), "budget 1 share=0.30"}, // shrink below the admitted set
		{at(5, 8), fmt.Sprintf("add gb 6 3 rate=0.30 len=8 load=0.60 lease=%d", at(1, 8).Uint())},
		{at(3, 4), "add gl 7 1 rate=0.03 len=4 latency=400 burst=2"}, // over the GL share: rejected
	}
	sched := make([]ctlplane.Scheduled, 0, len(lines))
	for _, l := range lines {
		cmd, err := ctlplane.ParseCommand(l.cmd)
		if err != nil {
			return nil, fmt.Errorf("experiments: ctlplane schedule: %w", err)
		}
		sched = append(sched, ctlplane.Scheduled{At: l.at, Cmd: cmd})
	}
	return sched, nil
}

// CtlPlane runs the reservation-churn scenario once per budget-shrink
// policy. Everything — admissions, rejections, lease expirations, the
// shrink response — flows through the live control plane
// (internal/ctlplane), and the delivery-trace hash pins the whole
// simulation bit-for-bit: the table is byte-identical at any worker
// count.
func CtlPlane(o Options) []CtlPlaneOutcome {
	o = o.withDefaults()
	policies := []struct {
		name    string
		degrade bool
	}{
		{"degrade", true},
		{"reject", false},
	}
	return runner.Map(o.pool(), len(policies), func(i int) CtlPlaneOutcome {
		return ctlPlaneRun(policies[i].name, policies[i].degrade, o)
	})
}

func ctlPlaneRun(name string, degrade bool, o Options) CtlPlaneOutcome {
	out := CtlPlaneOutcome{Policy: name}
	sched, err := ctlPlaneSchedule(o)
	if err != nil {
		out.Err = err
		return out
	}
	p, err := ctlplane.New(ctlplane.SimConfig{
		Radix:         fig4Radix,
		BEBufferFlits: fig4BufFlits,
		GLBufferFlits: fig4BufFlits,
		GBBufferFlits: fig4BufFlits,
		CounterBits:   counterBits,
		SigBits:       fig4SigBits,
		LMax:          fig4PacketLen,
		GBShare:       0.85,
		GLShare:       0.05,
		Degrade:       degrade,
		Seed:          o.Seed,
	})
	if err != nil {
		out.Err = fmt.Errorf("experiments: %w", err)
		return out
	}
	col := stats.NewCollector(o.Warmup, o.total())
	p.OnDeliver(col.OnDeliver)
	total := o.total()
	for {
		now := p.Now()
		for len(sched) > 0 && sched[0].At <= now {
			p.Apply(sched[0].Cmd) // rejections are part of the scenario
			sched = sched[1:]
		}
		if now >= total {
			break
		}
		next := total
		if len(sched) > 0 && sched[0].At < next {
			next = sched[0].At
		}
		if err := p.Advance(noc.SatSub(next, now)); err != nil {
			out.Err = err
			return out
		}
	}
	st := p.Stats()
	out.Admitted = st.Admitted
	out.Rejected = st.RejectedBudget + st.RejectedBound + st.RejectedOther
	out.Expired = st.Expired
	out.Revoked = st.Revoked
	out.Delivered = p.Delivered()
	out.TraceHash = p.TraceHash()
	// Judge the churn flow, reservation 1 (0 -> 1), against its admitted
	// 30% for the whole run. The flow offers double its reservation, so
	// with excess bandwidth the ratio runs above 1; under degrade the
	// mid-run budget shrink scales every grant down and the ratio drops,
	// while under reject the newest neighbour is revoked instead and the
	// flow keeps more.
	if r := p.Table().Get(1); r != nil {
		out.Adherence = col.GB([]noc.FlowSpec{{Src: r.Req.Src, Dst: r.Req.Dst, Class: r.Req.Class, Rate: r.Req.Rate}}).Worst
	}
	return out
}

// CtlPlaneTable renders the reservation-churn outcomes.
func CtlPlaneTable(outs []CtlPlaneOutcome) *stats.Table {
	t := stats.NewTable("Control plane: reservation churn under degrade vs reject (radix-8, 85% GB / 5% GL shares)",
		"policy", "admitted", "rejected", "expired", "revoked", "accepted/reserved", "delivered", "trace")
	for _, r := range outs {
		if r.Err != nil {
			t.AddRow(r.Policy, "error", r.Err.Error())
			continue
		}
		t.AddRow(r.Policy, r.Admitted, r.Rejected, r.Expired, r.Revoked,
			fmt.Sprintf("%.3f", r.Adherence), r.Delivered, fmt.Sprintf("%016x", r.TraceHash))
	}
	return t
}
