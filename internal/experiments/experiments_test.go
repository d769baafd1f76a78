package experiments

import (
	"strings"
	"testing"

	"swizzleqos/internal/stats"
)

// Shape tests: these assert the qualitative results the paper reports for
// each figure and table (who wins, by roughly what factor, where the
// crossovers are) using reduced-length runs.

func quick() Options { return Options{Cycles: 40000, Warmup: 4000, Seed: 1} }

func TestFig4NoQoSEqualSharing(t *testing.T) {
	res := Fig4(false, quick())
	if res.Table().NumRows() != len(Fig4InjectionRates()) {
		t.Fatalf("figure table rows = %d", res.Table().NumRows())
	}
	sat := res.Saturated()
	// Figure 4(a): during congestion all flows receive an equal share
	// and the output tops out at ~0.89 flits/cycle.
	if sat.Total < 0.87 || sat.Total > 0.90 {
		t.Fatalf("saturated total = %.3f, want ~8/9", sat.Total)
	}
	for i, v := range sat.PerFlow {
		if v < 0.10 || v > 0.122 {
			t.Errorf("flow %d saturated share = %.3f, want ~1/8 of 0.889", i, v)
		}
	}
	// Below saturation every flow gets what it offers.
	low := res.Points[1] // injection 0.10
	for i, v := range low.PerFlow {
		if v < 0.085 || v > 0.115 {
			t.Errorf("flow %d accepted %.3f at injection 0.10", i, v)
		}
	}
}

func TestFig4QoSDifferentiation(t *testing.T) {
	res := Fig4(true, quick())
	sat := res.Saturated()
	if sat.Total < 0.87 {
		t.Fatalf("saturated total = %.3f, channel should stay busy", sat.Total)
	}
	// Figure 4(b): flows are differentiated by their reservations. The
	// small flows (5-20%) receive at least ~their reserved rate; the 40%
	// flow receives far more than the equal share of panel (a) even
	// though the reservations (95%) oversubscribe the 0.889-capacity
	// channel.
	for i := 2; i < 8; i++ {
		if sat.PerFlow[i] < res.Rates[i]*0.95 {
			t.Errorf("flow %d accepted %.3f, reserved %.2f", i, sat.PerFlow[i], res.Rates[i])
		}
	}
	if sat.PerFlow[0] < 2*sat.PerFlow[4] {
		t.Errorf("40%% flow (%.3f) should dominate a 5%% flow (%.3f)", sat.PerFlow[0], sat.PerFlow[4])
	}
	if sat.PerFlow[0] < 0.25 {
		t.Errorf("40%% flow accepted %.3f; differentiation too weak", sat.PerFlow[0])
	}
}

func TestFig5Shape(t *testing.T) {
	res := Fig5(quick())
	if res.Table().NumRows() != len(Fig5Allocations) {
		t.Fatalf("figure table rows = %d", res.Table().NumRows())
	}
	orig1 := res.LowAllocationLatency("OriginalVC")
	sub1 := res.LowAllocationLatency("SubtractRealClock")
	halve1 := res.LowAllocationLatency("DivideBy2")
	reset1 := res.LowAllocationLatency("Reset")

	// Original Virtual Clock punishes the 1% flow hard; SSVC improves it
	// substantially; halving improves it further; reset further still.
	if sub1 >= orig1*0.6 {
		t.Errorf("SSVC 1%% latency %.0f should be well below original VC's %.0f", sub1, orig1)
	}
	if halve1 >= sub1 {
		t.Errorf("halving (%.0f) should beat subtract (%.0f) at 1%%", halve1, sub1)
	}
	if reset1 >= halve1 {
		t.Errorf("reset (%.0f) should beat halving (%.0f) at 1%%", reset1, halve1)
	}

	// Original VC's latency decreases monotonically with allocation
	// (coupling), by more than an order of magnitude end to end.
	pts := res.Points
	if pts[0].MeanLatency["OriginalVC"] < 10*pts[len(pts)-1].MeanLatency["OriginalVC"] {
		t.Errorf("original VC coupling too weak: %.0f -> %.0f",
			pts[0].MeanLatency["OriginalVC"], pts[len(pts)-1].MeanLatency["OriginalVC"])
	}

	// Reset has the least latency variance across allocations.
	resetSpread := res.LatencySpread("Reset")
	for _, pol := range []string{"OriginalVC", "SubtractRealClock", "DivideBy2"} {
		if resetSpread > res.LatencySpread(pol) {
			t.Errorf("reset spread %.2f should not exceed %s spread %.2f",
				resetSpread, pol, res.LatencySpread(pol))
		}
	}

	// The improvement costs the large allocation a little (paper: "the
	// increase in latency for flows with larger allocations").
	origBig := pts[len(pts)-1].MeanLatency["OriginalVC"]
	resetBig := pts[len(pts)-1].MeanLatency["Reset"]
	if resetBig <= origBig {
		t.Errorf("reset should sacrifice some latency at 40%%: %.0f vs original %.0f", resetBig, origBig)
	}
}

func TestAdherence(t *testing.T) {
	res := RateAdherence(5, quick())
	for i, c := range res.Combos {
		if c.Err != nil || !c.GB.Holds() {
			t.Errorf("combo %d: GB verdict %+v (err %v): every flow within 2%% of its reservation", i+1, c.GB, c.Err)
		}
	}
	if res.Failures != 0 {
		t.Fatalf("%d flows fell below GBTolerance of their reservation (worst ratio %.3f)",
			res.Failures, res.WorstRatio)
	}
	if res.Table().NumRows() != 5 {
		t.Fatalf("table rows = %d, want 5", res.Table().NumRows())
	}
}

func TestGLBoundHolds(t *testing.T) {
	res := GLBound(Options{Cycles: 60000, Warmup: 6000, Seed: 1})
	if !res.AllHold() {
		t.Fatalf("guaranteed-latency bound violated:\n%s", res.Table())
	}
	// The bound should be reasonably tight: the adversarial scenario
	// reaches at least half of it somewhere.
	if res.Tightness() < 0.5 {
		t.Errorf("bound tightness %.2f; adversarial scenario too weak", res.Tightness())
	}
	// Contention grows the measured worst case monotonically in NGL for
	// the first four scenarios.
	for i := 1; i < 4; i++ {
		if res.Outcomes[i].GL.Worst <= res.Outcomes[i-1].GL.Worst {
			t.Errorf("worst wait should grow with NGL: %.0f (NGL=%d) vs %.0f (NGL=%d)",
				res.Outcomes[i].GL.Worst, res.Outcomes[i].Scenario.NGL,
				res.Outcomes[i-1].GL.Worst, res.Outcomes[i-1].Scenario.NGL)
		}
	}
}

// TestGLBoundNeedsEvidence: a window too short for any GL packet to be
// delivered proves nothing about Eq. 1, so no scenario may hold.
func TestGLBoundNeedsEvidence(t *testing.T) {
	for _, oc := range GLBound(Options{Cycles: 5, Warmup: 5}).Outcomes {
		if oc.Holds() {
			t.Errorf("NGL=%d GL pkt=%d holds on %d GL packets", oc.Scenario.NGL, oc.Scenario.GLPacketLen, oc.GL.Evidence)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"1056 K", "45 K", "1101 K", "16384"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Anchors(t *testing.T) {
	out := Table2().String()
	// The 8x8/256-bit row carries the worst slowdown, 8.4%.
	if !strings.Contains(out, "8.4") {
		t.Errorf("Table 2 missing the 8.4%% worst slowdown:\n%s", out)
	}
	// Radix-64 at 128 bits cannot host three classes.
	if !strings.Contains(out, "needs wider bus") {
		t.Errorf("Table 2 missing the radix-64 lane limitation:\n%s", out)
	}
}

func TestLanesTable(t *testing.T) {
	out := LanesTable().String()
	if !strings.Contains(out, "unsupported") {
		t.Errorf("lanes table should flag 64x64/128 as unsupported:\n%s", out)
	}
}

func TestAblationChaining(t *testing.T) {
	outcomes := AblationChaining(quick())
	if ChainingTable(outcomes).NumRows() != len(outcomes) {
		t.Fatal("chaining table truncated")
	}
	for _, oc := range outcomes {
		if oc.Plain < oc.TheoryPlain-0.02 || oc.Plain > oc.TheoryPlain+0.02 {
			t.Errorf("packet length %d: plain throughput %.3f, theory %.3f",
				oc.PacketLen, oc.Plain, oc.TheoryPlain)
		}
		if oc.Chained < 0.97 {
			t.Errorf("packet length %d: chained throughput %.3f, want ~1.0", oc.PacketLen, oc.Chained)
		}
	}
}

func TestAblationFixedPriority(t *testing.T) {
	outcomes := AblationFixedPriority(quick())
	if FixedPriorityTable(outcomes).NumRows() != 2 {
		t.Fatal("fixed-priority table truncated")
	}
	fixed, ssvc := outcomes[0], outcomes[1]
	if fixed.VictimAccepted > 0.01 {
		t.Errorf("fixed priority should starve the victim, got %.3f", fixed.VictimAccepted)
	}
	if ssvc.VictimAccepted < 0.29 {
		t.Errorf("SSVC victim accepted %.3f, reserved 0.30", ssvc.VictimAccepted)
	}
	if ssvc.AggressorAccepted < 0.29 {
		t.Errorf("SSVC aggressor accepted %.3f, reserved 0.30", ssvc.AggressorAccepted)
	}
}

func TestAblationStaticSchedulers(t *testing.T) {
	outcomes := AblationStaticSchedulers(quick())
	if StaticTable(outcomes).NumRows() != len(outcomes) {
		t.Fatal("static table truncated")
	}
	byName := map[string]float64{}
	for _, oc := range outcomes {
		byName[oc.Scheme] = oc.Utilisation
	}
	// True TDM and the fixed WRR schedule waste the idle flows' slots
	// (~50% utilisation); all work-conserving schemes keep the channel
	// full.
	for _, name := range []string{"TDM", "WRR(fixed)"} {
		if byName[name] > 0.6 {
			t.Errorf("%s utilisation %.3f, should waste idle slots", name, byName[name])
		}
	}
	for _, name := range []string{"WRR(work-conserving)", "DWRR", "WFQ", "SSVC"} {
		if byName[name] < 0.97 {
			t.Errorf("%s utilisation %.3f, want ~1.0 of effective capacity", name, byName[name])
		}
	}
}

func TestAblationSigBits(t *testing.T) {
	outcomes := AblationSigBits(quick())
	if SigBitsTable(outcomes).NumRows() != len(outcomes) {
		t.Fatal("sig-bits table truncated")
	}
	if len(outcomes) != 6 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	// §4.4: more lanes (levels) improve reservation accuracy. Compare
	// the coarsest against the finest configuration.
	if outcomes[0].WorstRatio > outcomes[len(outcomes)-1].WorstRatio {
		t.Errorf("accuracy should not degrade with resolution: 1 bit %.3f vs 6 bits %.3f",
			outcomes[0].WorstRatio, outcomes[len(outcomes)-1].WorstRatio)
	}
	if outcomes[len(outcomes)-1].WorstRatio < 0.97 {
		t.Errorf("6-bit resolution worst ratio %.3f, want near 1", outcomes[len(outcomes)-1].WorstRatio)
	}
}

func TestMotivationSingleStageVsMesh(t *testing.T) {
	out := Motivation(quick())
	if MotivationTable(out).NumRows() != len(out) {
		t.Fatal("motivation table truncated")
	}
	if len(out) != 3 {
		t.Fatalf("got %d systems", len(out))
	}
	byName := map[string]MotivationOutcome{}
	for _, oc := range out {
		byName[oc.System] = oc
	}
	ssvc := byName["SwizzleSwitch+SSVC"]
	lrg := byName["Mesh+LRG"]
	wrr := byName["Mesh+WRR(static ports)"]

	// The single-stage switch honours every contract.
	if !ssvc.GB.Holds() {
		t.Errorf("SSVC worst ratio %.3f; all reservations should be met", ssvc.GB.Worst)
	}
	// The plain mesh starves the victim once its flow merges with the
	// aggressors (port-level fairness compounds per hop).
	if lrg.MeetsReservation {
		t.Errorf("mesh LRG gave the victim %.3f; expected a violated 0.30 reservation", lrg.VictimThroughput)
	}
	if lrg.VictimThroughput > 0.15 {
		t.Errorf("mesh LRG victim %.3f; merging should compress it toward a port share", lrg.VictimThroughput)
	}
	// Static per-port weights over-serve the victim and break other
	// contracts: no weight setting expresses per-flow reservations.
	if wrr.GB.Holds() {
		t.Errorf("mesh WRR worst ratio %.3f; static port weights should not satisfy all four contracts", wrr.GB.Worst)
	}
	// And the single-stage switch is also faster for the victim.
	if ssvc.VictimMeanLat >= lrg.VictimMeanLat {
		t.Errorf("SSVC victim latency %.1f should beat the 6-hop mesh's %.1f", ssvc.VictimMeanLat, lrg.VictimMeanLat)
	}
}

func TestScale64(t *testing.T) {
	res := Scale64(quick())
	if res.Table().NumRows() == 0 {
		t.Fatal("scale table empty")
	}
	if !res.GB.Holds() {
		t.Errorf("radix-64 hotspot GB verdict %+v: every flow within 2%% of its reservation", res.GB)
	}
	if res.HotspotTotal < 0.87 {
		t.Errorf("hotspot throughput %.3f, want ~8/9 (saturated)", res.HotspotTotal)
	}
	// 32 background outputs each carry a 0.5-reserved saturating flow.
	if res.BackgroundTotal < 32*0.5*stats.GBTolerance {
		t.Errorf("background total %.1f flits/cycle, want >= %.1f", res.BackgroundTotal, 32*0.5*stats.GBTolerance)
	}
	if res.Err != nil || !res.GL.Holds() {
		t.Errorf("GL verdict %+v (err %v) at radix 64: the bound must hold on evidence", res.GL, res.Err)
	}
}

func TestGLBurstsMeetConstraints(t *testing.T) {
	res := GLBursts(Options{Cycles: 60000, Warmup: 6000, Seed: 1})
	if res.Table().NumRows() != len(res.Outcomes) {
		t.Fatal("GL bursts table truncated")
	}
	if !res.AllHold() {
		t.Fatalf("a burst budget violated its constraint:\n%s", res.Table())
	}
	// Budgets are not trivially loose: the loosest flow's worst wait
	// reaches at least half its constraint.
	last := res.Outcomes[len(res.Outcomes)-1]
	if last.GL.Worst < last.GL.Bound/2 {
		t.Errorf("loosest flow waited only %.0f of %.0f cycles; scenario too weak",
			last.GL.Worst, last.GL.Bound)
	}
}

func TestConvergence(t *testing.T) {
	outcomes := Convergence(quick())
	if ConvergenceTable(outcomes).NumRows() != len(outcomes) {
		t.Fatal("convergence table truncated")
	}
	byName := map[string]ConvergenceOutcome{}
	for _, oc := range outcomes {
		byName[oc.Scheme] = oc
	}
	ssvc, lrg := byName["SSVC"], byName["LRG"]
	// While the 40% reservation sleeps, neither scheduler wastes the
	// channel (Virtual Clock redistributes idle slots; LRG is
	// work-conserving anyway).
	for name, oc := range byName {
		if oc.IdleUtilisation < 8.0/9*0.98 {
			t.Errorf("%s idle utilisation %.3f, want ~8/9", name, oc.IdleUtilisation)
		}
	}
	// SSVC re-establishes the reservation within a couple of windows;
	// the max(auxVC, now) rule means the sleeper is neither punished
	// nor allowed to bank priority.
	if ssvc.ConvergenceWindows < 0 || ssvc.ConvergenceWindows > 2 {
		t.Errorf("SSVC converged in %d windows, want <= 2", ssvc.ConvergenceWindows)
	}
	if ssvc.SteadyThroughput < 0.38 {
		t.Errorf("SSVC steady throughput %.3f, want >= 0.38", ssvc.SteadyThroughput)
	}
	// LRG has no reservation to converge to: the flow is stuck at an
	// equal share.
	if lrg.ConvergenceWindows != -1 {
		t.Errorf("LRG should never reach the 40%% reservation, converged in %d windows", lrg.ConvergenceWindows)
	}
	if lrg.SteadyThroughput > 0.25 {
		t.Errorf("LRG steady throughput %.3f, want ~equal share 0.178", lrg.SteadyThroughput)
	}
}

func TestAblationDecoupling(t *testing.T) {
	outcomes := AblationDecoupling(quick())
	if DecouplingTable(outcomes).NumRows() != len(outcomes) {
		t.Fatal("decoupling table truncated")
	}
	byName := map[string]DecouplingOutcome{}
	for _, oc := range outcomes {
		byName[oc.Scheme] = oc
	}
	orig, reset, ccsp := byName["OriginalVC"], byName["SSVC/Reset"], byName["CCSP[1]"]
	// A compliant 1% flow suffers several times more under original
	// Virtual Clock than under the decoupled schemes.
	if orig.LowAllocLat < 3*reset.LowAllocLat {
		t.Errorf("original VC compliant-flow latency %.1f should be >= 3x SSVC/Reset's %.1f",
			orig.LowAllocLat, reset.LowAllocLat)
	}
	// CCSP at top static priority matches the decoupled latency.
	if ccsp.LowAllocLat > 2*reset.LowAllocLat {
		t.Errorf("CCSP compliant-flow latency %.1f should be near SSVC/Reset's %.1f",
			ccsp.LowAllocLat, reset.LowAllocLat)
	}
	// The saturated 40% flow pays a similar price everywhere.
	for name, oc := range byName {
		if oc.HighAllocLat < 20 || oc.HighAllocLat > 200 {
			t.Errorf("%s 40%%-flow latency %.1f outside the plausible band", name, oc.HighAllocLat)
		}
	}
}

func TestAblationGSF(t *testing.T) {
	outcomes := AblationGSF(quick())
	if GSFTable(outcomes).NumRows() != len(outcomes) {
		t.Fatal("GSF table truncated")
	}
	byName := map[string]GSFOutcome{}
	for _, oc := range outcomes {
		byName[oc.Scheme] = oc
	}
	// SSVC and a fast-barrier GSF both honour the reservations at full
	// utilisation.
	for _, name := range []string{"SSVC", "GSF(barrier=0)", "GSF(barrier=256)"} {
		oc := byName[name]
		if oc.Err != nil || !oc.GB.Holds() {
			t.Errorf("%s GB verdict %+v (err %v): every flow within 2%% of its reservation", name, oc.GB, oc.Err)
		}
		if oc.Utilisation < 0.97 {
			t.Errorf("%s utilisation %.3f, want ~1", name, oc.Utilisation)
		}
	}
	// Once the barrier latency exceeds the frame drain time, GSF's
	// guarantees and utilisation collapse together — the §2.2 "adds
	// overhead and can be slow" criticism, quantified.
	slow := byName["GSF(barrier=1024)"]
	if slow.Utilisation > 0.5 || slow.GB.Worst > 0.5 {
		t.Errorf("slow-barrier GSF should collapse, got ratio %.3f util %.3f",
			slow.GB.Worst, slow.Utilisation)
	}
	// SSVC needs no frame machinery at all.
	if byName["SSVC"].Throttled != 0 {
		t.Error("SSVC should not throttle sources")
	}
}

func TestEnergyTable(t *testing.T) {
	out := EnergyTable().String()
	if !strings.Contains(out, "overhead") {
		t.Fatalf("energy table malformed:\n%s", out)
	}
	if EnergyTable().NumRows() != 9 {
		t.Fatalf("energy table rows = %d, want 9", EnergyTable().NumRows())
	}
}

func TestComposeQoS(t *testing.T) {
	out := ComposeQoS(quick())
	if ComposeTable(out).NumRows() != len(out) {
		t.Fatal("compose table truncated")
	}
	byName := map[string]ComposeOutcome{}
	for _, oc := range out {
		byName[oc.System] = oc
	}
	single := byName["SingleStage radix-8 SSVC"]
	clos := byName["Composed 2-level Clos (shared crosspoints)"]
	if !single.PerFlowHeld || !single.AggregateHeld {
		t.Errorf("single stage should hold every contract: %+v", single)
	}
	// The composition can only express aggregates at its shared
	// crosspoints: aggregates hold, per-flow splits collapse.
	if !clos.AggregateHeld {
		t.Errorf("composed aggregates should hold: %+v", clos)
	}
	if clos.PerFlowHeld {
		t.Errorf("composed per-flow guarantees should fail at the shared crosspoint: %+v", clos)
	}
	if clos.PerFlowWorst > 0.8 {
		t.Errorf("per-flow worst ratio %.3f; the 40%% flow should be squeezed toward the FIFO split", clos.PerFlowWorst)
	}
}

func TestAblationPVC(t *testing.T) {
	out := AblationPVC(quick())
	if PVCTable(out).NumRows() != len(out) {
		t.Fatal("PVC table truncated")
	}
	byName := map[string]PVCOutcome{}
	for _, oc := range out {
		byName[oc.Scheme] = oc
	}
	orig := byName["OrigVC(no preemption)"]
	pvc := byName["PVC(threshold=64)"]
	gl := byName["SSVC+GL"]

	// Without preemption the urgent packet can wait out a whole 64-flit
	// bulk packet (plus its own serialisation).
	if orig.UrgentMax < 40 || orig.UrgentMax > 64+8+2 {
		t.Errorf("OrigVC urgent max latency %d, want within one bulk packet (~72)", orig.UrgentMax)
	}
	// Preemption removes the blocking entirely...
	if pvc.UrgentMax > 12 {
		t.Errorf("PVC urgent max latency %d, preemption should remove bulk blocking", pvc.UrgentMax)
	}
	if pvc.Preemptions == 0 || pvc.WastedFlits == 0 {
		t.Error("PVC should have preempted and wasted flits")
	}
	// ...but pays in goodput.
	if pvc.Goodput >= orig.Goodput-0.01 {
		t.Errorf("PVC goodput %.3f should be measurably below OrigVC's %.3f", pvc.Goodput, orig.Goodput)
	}
	// The GL class bounds the wait at channel release (Eq. 1's l_max
	// term) with zero waste.
	if gl.UrgentMax > 64+8+2 {
		t.Errorf("GL urgent max latency %d exceeds the channel-release bound", gl.UrgentMax)
	}
	if gl.WastedFlits != 0 || gl.Goodput < orig.Goodput-0.001 {
		t.Errorf("GL should waste nothing: %+v", gl)
	}
}
