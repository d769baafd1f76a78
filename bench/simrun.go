package main

import (
	"fmt"
	"time"

	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
)

// repeats is how many times a sim workload sets up in one run: setup_s is
// the fastest of them, and the last set-up is the one the timed window
// uses. The smoke test's sizes are too small for that to mean anything and
// set up once.
func (e *env) repeats() int {
	if e.seconds < 0.5 {
		return 1
	}
	return 9
}

// passes is how many times a workload whose timed parts are too few or too
// unlike each other for a fast tail runs its timed work: full at full
// size, twice at the smoke test's, so that the merge still runs.
func (e *env) passes(full int) int {
	if e.seconds < 0.5 {
		return 2
	}
	return full
}

// sliceCycles sizes a sim workload: cycles per engine per slice.
func sliceCycles(name string, scale float64) uint64 {
	n := noc.ClampUint64(float64(simWorkloads[name].cycles)*scale/simSlices, 1<<40)
	if n < 1 {
		n = 1
	}
	return n
}

// runSim runs one of the three sim workloads.
func runSim(e *env) *workloadResult {
	res := newResult(e)
	per := sliceCycles(e.name, e.scale())
	chunk := simWorkloads[e.name].chunk
	if e.traced {
		return runSimTraced(e, res, (per+1)/2)
	}

	var run *simRun
	var setups []float64
	var alloc0 uint64
	for i := 0; i < e.repeats(); i++ {
		if i == e.repeats()-1 {
			alloc0 = totalAlloc()
		}
		t0 := time.Now()
		r, err := setupSim(e.name, e.seed, nil)
		if err != nil {
			return res.fail(err)
		}
		setups = append(setups, seconds(time.Since(t0)))
		run = r
	}
	st, err := run.runSlices(per, chunk, simSlices, nil, 0)
	if err != nil {
		return res.fail(err)
	}
	alloc1 := totalAlloc()

	checkSlices(e, res, per, st, nil)

	// Re-execution from the same inputs must reach the first slice's
	// digest: the any-seed determinism check.
	again, err := setupSim(e.name, e.seed, nil)
	if err != nil {
		return res.fail(err)
	}
	st2, err := again.runSlices(per, chunk, 1, nil, 0)
	if err != nil {
		return res.fail(err)
	}
	res.op(st2.digests[0] == st.digests[0], "replay of slice 1 reached digest %s, the timed run %s", st2.digests[0], st.digests[0])

	// Rates are those of the fastest hundredth of the Run calls, not the
	// median call or the mean over the window: interference from outside
	// the process only ever slows a call down, so the fast tail is the
	// code's speed and the rest is the host's. Eight same-seed runs on the
	// reference host spread 10 % by the mean, 13 % by the median call and
	// 2.4 % by the 99th percentile, which 2000 calls leave 20 beyond.
	var cps []float64
	var cycles, pkts uint64
	for i, w := range st.waits {
		cps = append(cps, float64(st.waitCyc[i])/seconds(w))
		cycles += st.waitCyc[i]
		pkts += st.waitPkts[i]
	}
	rate := percentile(cps, 99)
	window := float64(cycles) / rate // the timed window at that rate
	res.setFastest("setup_s", setups)
	res.setPercentile("sim_cycles_per_s", cps, 99)
	res.setSamples("sim_pkts_per_s", float64(pkts)/window, 0, 0, len(cps))
	res.set("alloc_mb", megabytes(alloc0, alloc1))
	res.fill(window, 0)
	simCounts(res, run, st)
	return res
}

// checkSlices makes each slice one operation: it fails when nothing was
// delivered, or when its digest differs from the pinned one or, in a
// traced run, from the untraced run's.
func checkSlices(e *env, res *workloadResult, per uint64, st *sliceTimes, untraced []string) {
	key := fmt.Sprintf("seed=%d cycles=%d", e.seed, per*simSlices)
	pins := e.pinned(key, st.digests)
	for s, d := range st.digests {
		switch {
		case st.delivered[s] == 0:
			res.op(false, "slice %d delivered nothing", s+1)
		case pins != nil && (s >= len(pins) || pins[s] != d):
			res.op(false, "slice %d digest %s differs from the pinned one (%s)", s+1, d, key)
		case untraced != nil && untraced[s] != d:
			res.op(false, "slice %d: traced digest %s, untraced %s", s+1, d, untraced[s])
		default:
			res.op(true, "")
		}
	}
}

// simCounts records the exact simulated outputs of a run.
func simCounts(res *workloadResult, run *simRun, st *sliceTimes) {
	res.Counts["digest"] = st.digests[len(st.digests)-1]
	for _, e := range run.engines {
		c := e.eng.Totals()
		res.Counts[e.layer+".cycles"] = fmt.Sprint(e.eng.Now().Uint())
		res.Counts[e.layer+".delivered"] = fmt.Sprint(c.Delivered)
		res.Counts[e.layer+".data_cycles"] = fmt.Sprint(c.DataCycles)
		res.Counts[e.layer+".skipped_outputs"] = fmt.Sprint(c.SkippedOutputs)
	}
}

// counterDelta is what an engine counted over the timed window.
func counterDelta(after, before fabric.Counters) fabric.Counters {
	return fabric.Counters{
		Delivered:      noc.SatSub(after.Delivered, before.Delivered),
		DataCycles:     noc.SatSub(after.DataCycles, before.DataCycles),
		SkippedOutputs: noc.SatSub(after.SkippedOutputs, before.SkippedOutputs),
	}
}

// runSimTraced runs the same inputs twice at half length, bare and then
// through the tracing wrappers: the two must agree on every slice digest,
// their wall times give the tracing overhead, and the spans give the
// per-layer shares.
func runSimTraced(e *env, res *workloadResult, per uint64) *workloadResult {
	chunk := simWorkloads[e.name].chunk
	bare, err := setupSim(e.name, e.seed, nil)
	if err != nil {
		return res.fail(err)
	}
	stB, err := bare.runSlices(per, chunk, simSlices, nil, 0)
	if err != nil {
		return res.fail(err)
	}

	tr := e.newTracer()
	run, err := setupSim(e.name, e.seed, tr)
	if err != nil {
		return res.fail(err)
	}
	tr.mark()
	before := make([]fabric.Counters, len(run.engines))
	for i, en := range run.engines {
		before[i] = en.eng.Totals()
	}
	root := tr.begin(0, e.name, "bench")
	stT, err := run.runSlices(per, chunk, simSlices, tr, root)
	tr.finish(root)
	if err != nil {
		return res.fail(err)
	}

	checkSlices(e, res, per, stT, stB.digests)
	tr.finishTrace(e, res)

	byName, selfByLayer := spanSums(tr.spans)
	wall := float64(tr.spans[root-1].dur())
	share := func(ns int64) float64 { return float64(ns) / wall }
	cycles := float64(per * simSlices)
	genCalls, _ := tr.window("traffic.Tick")
	res.set("traffic.gen_share", share(byName["traffic.Tick"]))
	res.set("traffic.gen_calls_per_cycle", float64(genCalls)/(cycles*float64(len(run.engines))))
	res.set("stats.deliver_share", share(byName["stats.Deliver"]))
	res.set("trace.overhead_share", seconds(stT.total)/seconds(stB.total)-1)

	for i, en := range run.engines {
		d := counterDelta(en.eng.Totals(), before[i])
		res.set(en.layer+".self_share", share(selfByLayer[en.layer]))
		res.set(en.layer+".pkts_per_cycle", float64(d.Delivered)/cycles)
		switch en.layer {
		case "switchsim":
			res.set("switchsim.data_cycles_per_cycle", float64(d.DataCycles)/cycles)
			res.set("switchsim.skipped_outputs_per_cycle", float64(d.SkippedOutputs)/cycles)
		default:
			res.set(en.layer+".ns_per_cycle", float64(stB.layerNS[en.layer])/float64(stB.layerCyc[en.layer]))
		}
	}
	switch e.name {
	case "routed_sat":
		res.set("arb.lrg_share", share(byName["arb.Arbitrate"]+byName["arb.Granted"]+byName["arb.Tick"]))
		routedKernels(e, res)
	default:
		calls, reqs := tr.window("core.Arbitrate")
		res.set("core.arbitrate_share", share(byName["core.Arbitrate"]))
		res.set("core.granted_share", share(byName["core.Granted"]))
		res.set("core.tick_share", share(byName["core.Tick"]))
		res.set("core.arbitrate_calls_per_cycle", float64(calls)/cycles)
		reqsPerCall := 0.0
		if calls > 0 {
			reqsPerCall = float64(reqs) / float64(calls)
		}
		res.set("core.arbitrate_reqs_per_call", reqsPerCall)
		if e.name == "xbar64_sat" {
			satKernels(e, res)
		} else {
			sparseKernels(e, res)
		}
	}
	simCounts(res, run, stT)
	return res
}
