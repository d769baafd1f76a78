// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4). Each benchmark runs the corresponding experiment and
// reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// both exercises the full harness and prints the reproduced numbers.
// The full-length sweeps live behind `ssvc-bench`; the benchmarks use
// shortened windows sized for a benchmarking loop.
package swizzleqos_test

import (
	"testing"

	"swizzleqos/internal/experiments"
)

func benchOptions() experiments.Options {
	return experiments.Options{Cycles: 20000, Warmup: 2000, Seed: 1}
}

// BenchmarkFig4aNoQoS regenerates Figure 4(a): the LRG baseline's equal
// bandwidth split under congestion. Reported metrics: the saturated
// output throughput (paper: 0.89 flits/cycle) and the largest flow's
// share (paper: ~1/8 of the channel despite its 40% demand).
func BenchmarkFig4aNoQoS(b *testing.B) {
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(false, benchOptions())
	}
	sat := res.Saturated()
	b.ReportMetric(sat.Total, "satThroughput")
	b.ReportMetric(sat.PerFlow[0], "flow40pctShare")
}

// BenchmarkFig4bSSVC regenerates Figure 4(b): SSVC differentiates the
// saturated flows by their reservations.
func BenchmarkFig4bSSVC(b *testing.B) {
	var res experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4(true, benchOptions())
	}
	sat := res.Saturated()
	b.ReportMetric(sat.Total, "satThroughput")
	b.ReportMetric(sat.PerFlow[0], "flow40pctShare")
	b.ReportMetric(sat.PerFlow[4], "flow5pctShare")
}

// BenchmarkFig5LatencyFairness regenerates Figure 5: mean latency vs
// allocation under the original Virtual Clock and the three SSVC counter
// policies. Reported metrics: the 1%-allocation latency under the
// original algorithm and under the Reset policy, and Reset's max/min
// latency spread (paper: least variance of all policies).
func BenchmarkFig5LatencyFairness(b *testing.B) {
	var res experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig5(benchOptions())
	}
	b.ReportMetric(res.LowAllocationLatency("OriginalVC"), "origVC1pctLat")
	b.ReportMetric(res.LowAllocationLatency("SubtractRealClock"), "subtract1pctLat")
	b.ReportMetric(res.LowAllocationLatency("Reset"), "reset1pctLat")
	b.ReportMetric(res.LatencySpread("Reset"), "resetSpread")
}

// BenchmarkRateAdherence regenerates the §4.2 check across random
// reservation mixes; the metric is the worst accepted/reserved ratio
// (paper: within 2% of the reservation, i.e. >= GBTolerance).
func BenchmarkRateAdherence(b *testing.B) {
	var res experiments.AdherenceResult
	for i := 0; i < b.N; i++ {
		res = experiments.RateAdherence(5, benchOptions())
	}
	b.ReportMetric(res.WorstRatio, "worstAcceptedOverReserved")
}

// BenchmarkTable1Storage regenerates Table 1; the metric is the total
// switch storage in KB (paper: ~1,101 KB).
func BenchmarkTable1Storage(b *testing.B) {
	var kb float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
		kb = experiments.Table1StorageKB()
	}
	b.ReportMetric(kb, "totalKB")
}

// BenchmarkTable2Frequency regenerates Table 2; the metric is the worst
// SSVC slowdown in percent (paper: 8.4% at 8x8/256-bit).
func BenchmarkTable2Frequency(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table2()
		if t.NumRows() == 0 {
			b.Fatal("empty table")
		}
		worst = experiments.WorstSlowdownPercent()
	}
	b.ReportMetric(worst, "worstSlowdownPct")
}

// BenchmarkGLBound regenerates the §3.4 guaranteed-latency validation;
// metrics: whether the bound held everywhere (1 = yes) and how close the
// adversarial worst case comes to it.
func BenchmarkGLBound(b *testing.B) {
	var res experiments.GLBoundResult
	for i := 0; i < b.N; i++ {
		res = experiments.GLBound(benchOptions())
	}
	holds := 0.0
	if res.AllHold() {
		holds = 1.0
	}
	b.ReportMetric(holds, "boundHolds")
	b.ReportMetric(res.Tightness(), "tightness")
}

// BenchmarkAblationPacketChaining measures the arbitration-cycle loss and
// its recovery via packet chaining (§4.2, [10]) for 2-flit packets.
func BenchmarkAblationPacketChaining(b *testing.B) {
	var out []experiments.ChainingOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationChaining(benchOptions())
	}
	for _, oc := range out {
		if oc.PacketLen == 2 {
			b.ReportMetric(oc.Plain, "plain2flit")
			b.ReportMetric(oc.Chained, "chained2flit")
		}
	}
}

// BenchmarkAblationFixedPriority contrasts the prior fixed-priority QoS
// [14] with SSVC; the metric is the victim flow's accepted throughput
// under each scheme (reservation: 0.30).
func BenchmarkAblationFixedPriority(b *testing.B) {
	var out []experiments.FixedPriorityOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationFixedPriority(benchOptions())
	}
	b.ReportMetric(out[0].VictimAccepted, "victimFixedPrio")
	b.ReportMetric(out[1].VictimAccepted, "victimSSVC")
}

// BenchmarkAblationStaticSchedulers measures leftover-bandwidth
// redistribution (§2.2): channel utilisation when half the reserved flows
// idle, under fixed WRR vs SSVC.
func BenchmarkAblationStaticSchedulers(b *testing.B) {
	var out []experiments.StaticOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationStaticSchedulers(benchOptions())
	}
	for _, oc := range out {
		switch oc.Scheme {
		case "WRR(fixed)":
			b.ReportMetric(oc.Utilisation, "utilWRRfixed")
		case "SSVC":
			b.ReportMetric(oc.Utilisation, "utilSSVC")
		}
	}
}

// BenchmarkMotivationSingleStageVsMesh quantifies the §1-§2.1 motivation:
// a 30%-reserving flow crossing a 16-node system, on a single-stage SSVC
// switch vs a 4x4 mesh. Metrics: the victim's accepted throughput on each
// fabric and the worst flow's accepted/reserved ratio under the mesh's
// best static weighting.
func BenchmarkMotivationSingleStageVsMesh(b *testing.B) {
	var out []experiments.MotivationOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.Motivation(benchOptions())
	}
	for _, oc := range out {
		switch oc.System {
		case "SwizzleSwitch+SSVC":
			b.ReportMetric(oc.VictimThroughput, "victimSSVC")
		case "Mesh+LRG":
			b.ReportMetric(oc.VictimThroughput, "victimMeshLRG")
		case "Mesh+WRR(static ports)":
			b.ReportMetric(oc.GB.Worst, "worstRatioMeshWRR")
		}
	}
}

// BenchmarkAblationSigBits sweeps the thermometer resolution (§4.4); the
// metric is the worst accepted/reserved ratio at 1 and 6 significant
// bits.
func BenchmarkAblationSigBits(b *testing.B) {
	var out []experiments.SigBitsOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationSigBits(benchOptions())
	}
	b.ReportMetric(out[0].WorstRatio, "worstRatio1bit")
	b.ReportMetric(out[len(out)-1].WorstRatio, "worstRatio6bit")
}

// BenchmarkScale64 exercises the headline scalability claim: a full
// radix-64 switch with 31 differentiated hotspot reservations plus
// uniform background. Metrics: the worst hotspot accepted/reserved ratio
// and the aggregate background throughput.
func BenchmarkScale64(b *testing.B) {
	var res experiments.ScaleResult
	for i := 0; i < b.N; i++ {
		res = experiments.Scale64(benchOptions())
	}
	b.ReportMetric(res.GB.Worst, "worstHotspotRatio")
	b.ReportMetric(res.BackgroundTotal, "backgroundFlitsPerCycle")
}

// BenchmarkGLBursts validates the burst-size recursion (Eqs. 2-3, with
// the corrected N_GL-n+1 denominator) by simulation; metrics: whether
// every constraint held and how close the loosest flow came to its bound.
func BenchmarkGLBursts(b *testing.B) {
	var res experiments.GLBurstsResult
	for i := 0; i < b.N; i++ {
		res = experiments.GLBursts(benchOptions())
	}
	holds := 0.0
	if res.AllHold() {
		holds = 1.0
	}
	b.ReportMetric(holds, "budgetsHold")
	last := res.Outcomes[len(res.Outcomes)-1]
	b.ReportMetric(last.GL.Worst/last.GL.Bound, "loosestTightness")
}

// BenchmarkConvergence measures the transient after a 40%-reserved flow
// wakes into a slack-filled channel. Metrics: windows (500 cycles) to
// reach 95% of the reservation under SSVC, and the channel utilisation
// while the reservation slept.
func BenchmarkConvergence(b *testing.B) {
	var out []experiments.ConvergenceOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.Convergence(benchOptions())
	}
	for _, oc := range out {
		if oc.Scheme == "SSVC" {
			b.ReportMetric(float64(oc.ConvergenceWindows), "windowsToReservation")
			b.ReportMetric(oc.IdleUtilisation, "idleUtilisation")
		}
	}
}

// BenchmarkAblationDecoupling compares latency decoupling for a compliant
// 1% flow: original Virtual Clock vs SSVC/Reset vs the related-work CCSP.
func BenchmarkAblationDecoupling(b *testing.B) {
	var out []experiments.DecouplingOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationDecoupling(benchOptions())
	}
	for _, oc := range out {
		switch oc.Scheme {
		case "OriginalVC":
			b.ReportMetric(oc.LowAllocLat, "compliant1pctOrigVC")
		case "SSVC/Reset":
			b.ReportMetric(oc.LowAllocLat, "compliant1pctReset")
		case "CCSP[1]":
			b.ReportMetric(oc.LowAllocLat, "compliant1pctCCSP")
		}
	}
}

// BenchmarkAblationGSF quantifies §2.2's criticism of frame-based QoS:
// GSF matches SSVC only while its global barrier is faster than a frame
// drain; the metrics are the worst accepted/reserved ratio for SSVC, a
// fast-barrier GSF, and a slow-barrier GSF.
func BenchmarkAblationGSF(b *testing.B) {
	var out []experiments.GSFOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationGSF(benchOptions())
	}
	for _, oc := range out {
		switch oc.Scheme {
		case "SSVC":
			b.ReportMetric(oc.GB.Worst, "worstRatioSSVC")
		case "GSF(barrier=0)":
			b.ReportMetric(oc.GB.Worst, "worstRatioGSFfast")
		case "GSF(barrier=1024)":
			b.ReportMetric(oc.Utilisation, "utilGSFslow")
		}
	}
}

// BenchmarkComposeQoS quantifies §4.4's composition argument: per-flow
// worst accepted/reserved ratio on a single-stage SSVC switch vs a
// two-level Clos whose shared crosspoints can only hold aggregates.
func BenchmarkComposeQoS(b *testing.B) {
	var out []experiments.ComposeOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.ComposeQoS(benchOptions())
	}
	for _, oc := range out {
		if oc.System == "SingleStage radix-8 SSVC" {
			b.ReportMetric(oc.PerFlowWorst, "perFlowSingleStage")
		} else {
			b.ReportMetric(oc.PerFlowWorst, "perFlowComposed")
			b.ReportMetric(oc.AggregateWorst, "aggregateComposed")
		}
	}
}

// BenchmarkAblationPVC compares preemption [7] against the paper's GL
// class for urgent traffic behind 64-flit bulk packets: PVC's urgent
// latency and its goodput cost, vs the GL class's bounded wait at zero
// waste.
func BenchmarkAblationPVC(b *testing.B) {
	var out []experiments.PVCOutcome
	for i := 0; i < b.N; i++ {
		out = experiments.AblationPVC(benchOptions())
	}
	for _, oc := range out {
		switch oc.Scheme {
		case "PVC(threshold=64)":
			b.ReportMetric(oc.UrgentMean, "urgentLatPVC")
			b.ReportMetric(oc.Goodput, "goodputPVC")
		case "SSVC+GL":
			b.ReportMetric(oc.UrgentMean, "urgentLatGL")
			b.ReportMetric(oc.Goodput, "goodputGL")
		}
	}
}
