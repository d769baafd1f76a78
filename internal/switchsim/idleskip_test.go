package switchsim

import (
	"fmt"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// delivery records one packet delivery for trace comparison between the
// event-driven and full-walk cycle loops.
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
	load     float64 // per-flow Bernoulli rate; 0 means fully backlogged
	cycles   noc.Cycle
	gate     func(now noc.Cycle, p *noc.Packet) bool // Config.AdmissionGate
	hot      int                                     // converging VOQs: GB flows per input onto outputs [0, hot)
}

// buildSkipSwitch builds a switch carrying a deterministic mixed-class
// load (GB everywhere, BE on every third input, one policed GL source).
// With hot > 0 the GB load converges instead: every input but each
// fourth carries one GB flow to each of the outputs [0, hot), so an
// input holds several GB queues waiting on different full VOQs, and each
// fourth input carries one BE flow onto output hot or hot+1. fullWalk
// installs an inert fault schedule — the zero faults.Config injects
// nothing — which forces the reference full-scan admission loop and full
// output walk, turning the event-driven masks and the refusal memory off
// without changing any observable behavior.
func buildSkipSwitch(t *testing.T, sc skipScenario, fullWalk bool) *Switch {
	t.Helper()
	radix := sc.radix
	vticks := make([]core.VTime, radix)
	for i := 0; i < radix-1; i++ {
		vticks[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick()
	}
	glVtick := noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick()
	cfg := Config{
		Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16,
		PacketChaining: sc.chaining, AdmissionGate: sc.gate,
	}
	sw := mustNew(t, cfg, ssvcGLFactory(radix, vticks, glVtick, 2))
	if fullWalk {
		if err := sw.SetFaults(faults.Config{}); err != nil {
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

// TestEventDrivenMatchesFullWalk drives the default event-driven cycle
// loop and the reference full-walk loop (forced via an inert fault
// schedule) over identical workloads and demands byte-identical
// behavior: every counter and the complete delivery trace must match.
// The only permitted difference is the skip accounting itself, which
// must be zero on the full walk and (at low load) positive on the
// event-driven path, and the refusal memory, which the full walk never
// fills and the converging-VOQ shapes must use.
func TestEventDrivenMatchesFullWalk(t *testing.T) {
	scenarios := []skipScenario{
		{name: "lowLoadRadix8", radix: 8, load: 0.05, cycles: 4000},
		{name: "saturatedChainingRadix8", radix: 8, chaining: true, cycles: 3000},
		{name: "midLoadChainingRadix64", radix: 64, chaining: true, load: 0.1, cycles: 2000},
		{name: "lowLoadRadix64", radix: 64, load: 0.02, cycles: 3000},
		{name: "convergingRadix8", radix: 8, hot: 2, cycles: 3000},
		{name: "convergingChainingRadix64", radix: 64, chaining: true, hot: 4, cycles: 2000},
		{name: "convergingMidLoadRadix64", radix: 64, hot: 3, load: 0.3, cycles: 2000},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var traces [2][]delivery
			var sws [2]*Switch
			var remembered [2]int
			for v := 0; v < 2; v++ {
				fullWalk := v == 1
				sw := buildSkipSwitch(t, sc, fullWalk)
				idx := v
				sw.OnDeliver(func(p *noc.Packet) {
					traces[idx] = append(traces[idx], delivery{p.ID, p.Src, p.Dst, p.DeliveredAt})
				})
				for c := noc.Cycle(0); c < sc.cycles && sw.Err() == nil; c++ {
					sw.Step()
					remembered[v] += checkRefusals(t, sw)
				}
				if err := sw.Err(); err != nil {
					t.Fatalf("fullWalk=%v: engine froze: %v", fullWalk, err)
				}
				sws[v] = sw
			}
			ev, ref := sws[0], sws[1]
			if remembered[1] != 0 {
				t.Errorf("the full walk remembered %d refusals", remembered[1])
			}
			if sc.hot > 0 && (remembered[0] == 0 || ev.sources.Tries() >= ref.sources.Tries()) {
				t.Errorf("converging VOQs: event-driven remembered %d refusals and made %d tries, full walk %d",
					remembered[0], ev.sources.Tries(), ref.sources.Tries())
			}
			counters := []struct {
				name    string
				ev, ref uint64
			}{
				{"Injected", ev.Injected, ref.Injected},
				{"Admitted", ev.Admitted, ref.Admitted},
				{"Delivered", ev.Delivered, ref.Delivered},
				{"Dropped", ev.Dropped, ref.Dropped},
				{"ArbCycles", ev.ArbCycles, ref.ArbCycles},
				{"IdleCycles", ev.IdleCycles, ref.IdleCycles},
				{"DataCycles", ev.DataCycles, ref.DataCycles},
				{"Chained", ev.Chained, ref.Chained},
				{"Preempted", ev.Preempted, ref.Preempted},
			}
			for _, c := range counters {
				if c.ev != c.ref {
					t.Errorf("%s: event-driven %d != full-walk %d", c.name, c.ev, c.ref)
				}
			}
			if ref.SkippedOutputs != 0 || ref.SkippedAdmits != 0 {
				t.Errorf("full walk must not skip: outputs=%d admits=%d",
					ref.SkippedOutputs, ref.SkippedAdmits)
			}
			if sc.load > 0 && sc.load <= 0.05 {
				if ev.SkippedOutputs == 0 {
					t.Error("low-load event-driven run skipped no output cycles")
				}
				if ev.SkippedAdmits == 0 {
					t.Error("low-load event-driven run skipped no admission scans")
				}
			}
			// Every output-cycle is accounted exactly once: a flit moved, a
			// preemption, an arbitration, or idleness (visited or skipped).
			for v, sw := range sws {
				got := sw.DataCycles + sw.ArbCycles + sw.IdleCycles + sw.Preempted
				want := uint64(sc.radix) * uint64(sw.Now())
				if got != want {
					t.Errorf("switch %d: output-cycle accounting %d != radix*cycles %d", v, got, want)
				}
			}
			if len(traces[0]) != len(traces[1]) {
				t.Fatalf("delivery counts differ: event-driven %d, full-walk %d",
					len(traces[0]), len(traces[1]))
			}
			for i := range traces[0] {
				if traces[0][i] != traces[1][i] {
					t.Fatalf("delivery %d differs: event-driven %+v, full-walk %+v",
						i, traces[0][i], traces[1][i])
				}
			}
		})
	}
}

// buildPreemptSwitch builds a radix-8 switch of preempting PVC arbiters
// in which a fast flow's packet preempts a slow flow's mid-flight, twice.
func buildPreemptSwitch(t *testing.T, fullWalk bool) *Switch {
	t.Helper()
	const radix = 8
	cfg := testConfig()
	cfg.Preemption = true
	vticks := []noc.VTime{2000, 20, 50, 50, 0, 0, 0, 0}
	sw := mustNew(t, cfg, func(int) arb.Arbiter { return arb.NewPVC(radix, vticks, 10) })
	if fullWalk {
		if err := sw.SetFaults(faults.Config{}); err != nil {
			t.Fatal(err)
		}
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
// a preempting PVC arbiter, exercising the preemption path's mask
// maintenance (victim PushFront, channel teardown, immediate regrant).
func TestEventDrivenMatchesFullWalkPreemption(t *testing.T) {
	var traces [2][]delivery
	var sws [2]*Switch
	for v := 0; v < 2; v++ {
		sw := buildPreemptSwitch(t, v == 1)
		idx := v
		sw.OnDeliver(func(p *noc.Packet) {
			traces[idx] = append(traces[idx], delivery{p.ID, p.Src, p.Dst, p.DeliveredAt})
		})
		sw.Run(400)
		sws[v] = sw
	}
	if sws[0].Preempted == 0 {
		t.Fatal("scenario exercised no preemption")
	}
	if sws[0].Preempted != sws[1].Preempted || sws[0].Delivered != sws[1].Delivered ||
		sws[0].WastedFlits != sws[1].WastedFlits {
		t.Fatalf("event-driven (pre=%d del=%d waste=%d) != full-walk (pre=%d del=%d waste=%d)",
			sws[0].Preempted, sws[0].Delivered, sws[0].WastedFlits,
			sws[1].Preempted, sws[1].Delivered, sws[1].WastedFlits)
	}
	if fmt.Sprint(traces[0]) != fmt.Sprint(traces[1]) {
		t.Fatalf("delivery traces differ:\nevent-driven %v\nfull-walk    %v", traces[0], traces[1])
	}
}

// TestIdleSkipCountersDeterministic pins the skip accounting itself:
// identical runs must report identical SkippedOutputs/SkippedAdmits, and
// skipped output-cycles must stay inside the IdleCycles total they are
// documented to be part of.
func TestIdleSkipCountersDeterministic(t *testing.T) {
	sc := skipScenario{radix: 16, load: 0.03, cycles: 5000}
	run := func() *Switch {
		sw := buildSkipSwitch(t, sc, false)
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
