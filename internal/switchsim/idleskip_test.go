package switchsim

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/gsf"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// delivery records one packet delivery for trace comparison between the
// masked walk and the full-walk oracle.
type delivery struct {
	id       uint64
	src, dst int
	at       noc.Cycle
}

// skipScenario is one configuration of the masked-vs-full differential.
type skipScenario struct {
	name     string
	radix    int
	chaining bool
	preempt  bool    // preempting PVC arbiters (Config.Preemption)
	gsf      bool    // GSF's source gate and frame arbiters
	load     float64 // per-flow Bernoulli rate; 0 means fully backlogged
	cycles   noc.Cycle
	gate     func(now noc.Cycle, p *noc.Packet) bool // Config.AdmissionGate
	hot      int                                     // converging VOQs: GB flows per input onto outputs [0, hot)
	faults   *faults.Config                          // a fault schedule, installed before the first cycle
}

// buildSkipSwitch builds a switch carrying a deterministic mixed-class
// load (GB everywhere, BE on every third input, one policed GL source).
// With hot > 0 the GB load converges instead: every input but each
// fourth carries one GB flow to each of the outputs [0, hot), so an
// input holds several GB queues waiting on different full VOQs, and each
// fourth input carries one BE flow onto output hot or hot+1. deliver, if
// set, observes every delivery.
func buildSkipSwitch(t *testing.T, sc skipScenario, deliver func(*noc.Packet)) *Switch {
	t.Helper()
	radix := sc.radix
	vticks := make([]core.VTime, radix)
	for i := 0; i < radix-1; i++ {
		vticks[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick()
	}
	glVtick := noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick()
	cfg := Config{
		Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16,
		PacketChaining: sc.chaining, Preemption: sc.preempt, AdmissionGate: sc.gate,
	}
	factory := ssvcGLFactory(radix, vticks, glVtick, 2)
	if sc.preempt {
		factory = func(int) arb.Arbiter { return arb.NewPVC(radix, vticks, 10) }
	}
	observe := deliver
	if sc.gsf {
		rates := make([]float64, radix)
		for i := range rates {
			rates[i] = 0.2
		}
		ctl := gsf.NewController(gsf.Config{Inputs: radix, FrameFlits: 160, Window: 1, BarrierLatency: 48, Rates: rates})
		cfg.AdmissionGate = ctl.Admit
		factory = func(int) arb.Arbiter { return gsf.NewArbiter(radix, ctl) }
		observe = func(p *noc.Packet) {
			ctl.Delivered(p)
			if deliver != nil {
				deliver(p)
			}
		}
	}
	sw := mustNew(t, cfg, factory)
	if observe != nil {
		sw.OnDeliver(observe)
	}
	if sc.faults != nil {
		if err := sw.SetFaults(*sc.faults); err != nil {
			t.Fatal(err)
		}
	}
	var seq traffic.Sequence
	gen := func(spec noc.FlowSpec, seed uint64) traffic.Flow {
		if sc.load > 0 {
			return traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, sc.load, seed)}
		}
		return traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 4)}
	}
	for i := 0; i < radix-1; i++ {
		if sc.hot > 0 {
			if i%4 == 3 {
				be := noc.FlowSpec{Src: i, Dst: sc.hot + i/4%2, Class: noc.BestEffort, PacketLength: 2}
				addFlow(t, sw, gen(be, 2000+uint64(i)))
				continue
			}
			for o := 0; o < sc.hot; o++ {
				spec := noc.FlowSpec{Src: i, Dst: o, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
				addFlow(t, sw, gen(spec, 1000+uint64(radix*i+o)))
			}
			continue
		}
		spec := noc.FlowSpec{Src: i, Dst: (i*5 + 1) % radix, Class: noc.GuaranteedBandwidth,
			Rate: 0.2, PacketLength: 4}
		addFlow(t, sw, gen(spec, 1000+uint64(i)))
		if i%3 == 0 {
			be := noc.FlowSpec{Src: i, Dst: (i*3 + 2) % radix, Class: noc.BestEffort, PacketLength: 2}
			rate := sc.load
			if rate == 0 {
				rate = 0.3
			}
			addFlow(t, sw, traffic.Flow{Spec: be, Gen: traffic.NewBernoulli(&seq, be, rate, 2000+uint64(i))})
		}
	}
	gl := noc.FlowSpec{Src: radix - 1, Dst: 0, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
	addFlow(t, sw, traffic.Flow{Spec: gl, Gen: traffic.NewBernoulli(&seq, gl, 0.05, 3000)})
	return sw
}

// liveSchedule is a fault schedule that bites on buildSkipSwitch's load
// at any radix: CRC corruption with retries and a short backoff, two
// overlapping stall windows on output 1 and one on the last output, an
// input and an output fail-stop, and a stall of the output that dies.
func liveSchedule(radix int) *faults.Config {
	return &faults.Config{
		Seed:        11,
		CorruptProb: 0.03,
		BackoffBase: 3,
		BackoffCap:  40,
		Stalls: []faults.StallWindow{
			{Port: 1, From: 300, Until: 420},
			{Port: 1, From: 400, Until: 460},
			{Port: radix - 1, From: 150, Until: 900},
			{Port: 6, From: 1100, Until: 1400},
		},
		FailStops: []faults.FailStop{
			{Input: true, Port: 3, At: 700},
			{Port: 6, At: 1200},
		},
	}
}

// TestEventDrivenMatchesFullWalk drives the masked walk and the full-walk
// oracle (fullwalk_test.go) in lock step over identical workloads and
// demands byte-identical behaviour (lockStep): every counter after every
// cycle but SkippedAdmits, the fault counters, the complete delivery
// trace and the output-cycle identity. The scenarios run fault-free, under
// an admission gate, under GSF's gate and under live fault schedules:
// fail-stops, stalls, corruption with retry, and all of them with GSF. At
// low load the masked walk must skip, and on the converging-VOQ shapes it
// must remember refusals and make fewer admission tries than the oracle.
func TestEventDrivenMatchesFullWalk(t *testing.T) {
	scenarios := []skipScenario{
		{name: "lowLoadRadix8", radix: 8, load: 0.05, cycles: 4000},
		{name: "saturatedChainingRadix8", radix: 8, chaining: true, cycles: 3000},
		{name: "midLoadChainingRadix64", radix: 64, chaining: true, load: 0.1, cycles: 2000},
		{name: "lowLoadRadix64", radix: 64, load: 0.02, cycles: 3000},
		{name: "convergingRadix8", radix: 8, hot: 2, cycles: 3000},
		{name: "convergingChainingRadix64", radix: 64, chaining: true, hot: 4, cycles: 2000},
		{name: "convergingMidLoadRadix64", radix: 64, hot: 3, load: 0.3, cycles: 2000},
		{name: "gateRadix8", radix: 8, cycles: 3000,
			gate: func(now noc.Cycle, p *noc.Packet) bool { return (uint64(now)+uint64(p.Src))%3 != 0 }},
		{name: "gsfRadix8", radix: 8, gsf: true, cycles: 3000},
		{name: "failStopsRadix8", radix: 8, load: 0.2, cycles: 2000, faults: &faults.Config{
			FailStops: []faults.FailStop{{Input: true, Port: 2, At: 500}, {Port: 5, At: 900}, {Port: 0, At: 1500}}}},
		{name: "stallsChainingRadix8", radix: 8, chaining: true, cycles: 2000, faults: &faults.Config{
			Stalls: []faults.StallWindow{{Port: 1, From: 100, Until: 300}, {Port: 1, From: 250, Until: 400}, {Port: 4, From: 0, Until: 50}}}},
		{name: "corruptRetryRadix8", radix: 8, load: 0.15, cycles: 3000, faults: &faults.Config{
			Seed: 3, CorruptProb: 0.1, BackoffBase: 2, BackoffCap: 64}},
		{name: "liveChainingRadix70", radix: 70, chaining: true, load: 0.1, cycles: 2000, faults: liveSchedule(70)},
		{name: "liveConvergingRadix64", radix: 64, hot: 4, cycles: 2000, faults: liveSchedule(64)},
		{name: "liveLowLoadRadix64", radix: 64, load: 0.02, cycles: 3000, faults: liveSchedule(64)},
		{name: "liveGSFRadix8", radix: 8, gsf: true, cycles: 2000, faults: liveSchedule(8)},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			r := lockStep(t, sc.cycles, func(deliver func(*noc.Packet)) *Switch { return buildSkipSwitch(t, sc, deliver) })
			ev, ref := r.ev, r.ref
			if ev.Delivered == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if sc.load > 0 && sc.load <= 0.05 && (ev.SkippedOutputs == 0 || ev.SkippedAdmits == 0) {
				t.Errorf("low-load run skipped nothing: outputs=%d admits=%d", ev.SkippedOutputs, ev.SkippedAdmits)
			}
			if sc.hot > 0 && (r.remembered == 0 || ev.sources.Tries()-r.probeTries >= ref.sources.Tries()) {
				t.Errorf("converging VOQs: the masked walk remembered %d refusals and made %d tries, the full walk %d",
					r.remembered, ev.sources.Tries()-r.probeTries, ref.sources.Tries())
			}
			if sc.faults != nil {
				tot := ev.FaultTotals()
				if sc.faults.CorruptProb > 0 && tot.Retransmissions == 0 {
					t.Error("the schedule retried nothing")
				}
				if len(sc.faults.Stalls) > 0 && tot.StallCycles == 0 {
					t.Error("the schedule stalled nothing")
				}
				if len(sc.faults.FailStops) > 0 && ev.Dropped == 0 {
					t.Error("the fail-stops dropped nothing")
				}
			}
			if sc.gsf && (ev.SkippedAdmits == 0 || r.remembered == 0) {
				t.Errorf("under GSF the masked walk skipped %d admission scans and remembered %d refusals",
					ev.SkippedAdmits, r.remembered)
			}
		})
	}
}

// buildPreemptSwitch builds a radix-8 switch of preempting PVC arbiters
// in which a fast flow's packet preempts a slow flow's mid-flight, twice.
func buildPreemptSwitch(t *testing.T, deliver func(*noc.Packet)) *Switch {
	t.Helper()
	const radix = 8
	cfg := testConfig()
	cfg.Preemption = true
	vticks := []noc.VTime{2000, 20, 50, 50, 0, 0, 0, 0}
	sw := mustNew(t, cfg, func(int) arb.Arbiter { return arb.NewPVC(radix, vticks, 10) })
	if deliver != nil {
		sw.OnDeliver(deliver)
	}
	var seq traffic.Sequence
	slow := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.004, PacketLength: 8}
	fast := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.4, PacketLength: 8}
	addFlow(t, sw, traffic.Flow{Spec: slow, Gen: traffic.NewTrace(&seq, slow, []noc.Cycle{0, 40})})
	addFlow(t, sw, traffic.Flow{Spec: fast, Gen: traffic.NewTrace(&seq, fast, []noc.Cycle{3, 44})})
	for i := 2; i < 4; i++ {
		spec := noc.FlowSpec{Src: i, Dst: i, Class: noc.GuaranteedBandwidth, Rate: 0.1, PacketLength: 4}
		addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, 0.1, uint64(i))})
	}
	return sw
}

// TestEventDrivenMatchesFullWalkPreemption repeats the differential with
// preempting PVC arbiters, exercising the preemption path's mask
// maintenance (victim PushFront, channel teardown, immediate regrant):
// the two-preemption trace, and a saturated radix-8 load under a live
// fault schedule.
func TestEventDrivenMatchesFullWalkPreemption(t *testing.T) {
	r := lockStep(t, 400, func(deliver func(*noc.Packet)) *Switch { return buildPreemptSwitch(t, deliver) })
	if r.ev.Preempted == 0 {
		t.Fatal("scenario exercised no preemption")
	}
	sc := skipScenario{radix: 8, preempt: true, load: 0.3, faults: liveSchedule(8)}
	r = lockStep(t, 2000, func(deliver func(*noc.Packet)) *Switch { return buildSkipSwitch(t, sc, deliver) })
	if r.ev.Preempted == 0 || r.ev.FaultTotals().Retransmissions == 0 {
		t.Fatalf("the faulted PVC run preempted %d packets and retried %d", r.ev.Preempted, r.ev.FaultTotals().Retransmissions)
	}
}

// TestIdleSkipCountersDeterministic pins the skip accounting itself:
// identical runs must report identical SkippedOutputs/SkippedAdmits, and
// skipped output-cycles must stay inside the IdleCycles total they are
// documented to be part of.
func TestIdleSkipCountersDeterministic(t *testing.T) {
	sc := skipScenario{radix: 16, load: 0.03, cycles: 5000}
	run := func() *Switch {
		sw := buildSkipSwitch(t, sc, nil)
		sw.Run(sc.cycles)
		return sw
	}
	a, b := run(), run()
	if a.SkippedOutputs != b.SkippedOutputs || a.SkippedAdmits != b.SkippedAdmits {
		t.Fatalf("skip counters differ across identical runs: (%d,%d) vs (%d,%d)",
			a.SkippedOutputs, a.SkippedAdmits, b.SkippedOutputs, b.SkippedAdmits)
	}
	if a.SkippedOutputs == 0 || a.SkippedAdmits == 0 {
		t.Fatalf("low-load run should skip work: outputs=%d admits=%d",
			a.SkippedOutputs, a.SkippedAdmits)
	}
	if a.SkippedOutputs > a.IdleCycles {
		t.Fatalf("SkippedOutputs %d exceeds IdleCycles %d (skips are a subset of idleness)",
			a.SkippedOutputs, a.IdleCycles)
	}
}
