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

// skipScenario is one configuration of the engine-against-spec
// differential.
type skipScenario struct {
	name     string
	radix    int
	chaining bool
	preempt  bool    // preempting PVC arbiters
	gsf      bool    // GSF's source gate and frame arbiters
	load     float64 // per-flow Bernoulli rate; 0 means fully backlogged
	cycles   noc.Cycle
	gate     func(now noc.Cycle, p *noc.Packet) bool // Config.AdmissionGate
	hot      int                                     // converging VOQs: GB flows per input onto outputs [0, hot)
	faults   *faults.Config                          // a fault schedule, installed before the first cycle
}

// buildSkipSwitch builds the scenario's switch (skipScenario.rig).
func buildSkipSwitch(t *testing.T, sc skipScenario, deliver func(*noc.Packet)) *Switch {
	t.Helper()
	return sc.rig(deliver).engine(t)
}

// rig lays out a deterministic mixed-class load (GB everywhere, BE on
// every third input, one policed GL source). With hot > 0 the GB load
// converges instead: every input but each fourth carries one GB flow to
// each of the outputs [0, hot), so an input holds several GB queues
// waiting on different full VOQs, and each fourth input carries one BE
// flow onto output hot or hot+1. deliver, if set, observes every
// delivery.
func (sc skipScenario) rig(deliver func(*noc.Packet)) *rig {
	radix := sc.radix
	vticks := make([]core.VTime, radix)
	for i := 0; i < radix-1; i++ {
		vticks[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick()
	}
	glVtick := noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick()
	r := &rig{
		cfg: Config{
			Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16,
			PacketChaining: sc.chaining, AdmissionGate: sc.gate,
		},
		newArb:  ssvcGLFactory(radix, vticks, glVtick, 2),
		faults:  sc.faults,
		observe: deliver,
	}
	if sc.preempt {
		r.newArb = func(int) arb.Arbiter { return arb.NewPVC(radix, vticks, 10) }
	}
	if sc.gsf {
		rates := make([]float64, radix)
		for i := range rates {
			rates[i] = 0.2
		}
		ctl := gsf.NewController(gsf.Config{Inputs: radix, FrameFlits: 160, Window: 1, BarrierLatency: 48, Rates: rates})
		r.cfg.AdmissionGate = ctl.Admit
		r.newArb = func(int) arb.Arbiter { return gsf.NewArbiter(radix, ctl) }
		r.observe = func(p *noc.Packet) {
			ctl.Delivered(p)
			if deliver != nil {
				deliver(p)
			}
		}
	}
	var seq traffic.Sequence
	gen := func(fs noc.FlowSpec, seed uint64) traffic.Flow {
		if sc.load > 0 {
			return traffic.Flow{Spec: fs, Gen: traffic.NewBernoulli(&seq, fs, sc.load, seed)}
		}
		return traffic.Flow{Spec: fs, Gen: traffic.NewBacklogged(&seq, fs, 4)}
	}
	for i := 0; i < radix-1; i++ {
		if sc.hot > 0 {
			if i%4 == 3 {
				be := noc.FlowSpec{Src: i, Dst: sc.hot + i/4%2, Class: noc.BestEffort, PacketLength: 2}
				r.flows = append(r.flows, gen(be, 2000+uint64(i)))
				continue
			}
			for o := 0; o < sc.hot; o++ {
				fs := noc.FlowSpec{Src: i, Dst: o, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
				r.flows = append(r.flows, gen(fs, 1000+uint64(radix*i+o)))
			}
			continue
		}
		fs := noc.FlowSpec{Src: i, Dst: (i*5 + 1) % radix, Class: noc.GuaranteedBandwidth,
			Rate: 0.2, PacketLength: 4}
		r.flows = append(r.flows, gen(fs, 1000+uint64(i)))
		if i%3 == 0 {
			be := noc.FlowSpec{Src: i, Dst: (i*3 + 2) % radix, Class: noc.BestEffort, PacketLength: 2}
			rate := sc.load
			if rate == 0 {
				rate = 0.3
			}
			r.flows = append(r.flows, traffic.Flow{Spec: be, Gen: traffic.NewBernoulli(&seq, be, rate, 2000+uint64(i))})
		}
	}
	gl := noc.FlowSpec{Src: radix - 1, Dst: 0, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
	r.flows = append(r.flows, traffic.Flow{Spec: gl, Gen: traffic.NewBernoulli(&seq, gl, 0.05, 3000)})
	return r
}

// liveSchedule is a fault schedule that bites on skipScenario's load at
// any radix: CRC corruption with retries and a short backoff, two
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

// preemptRig lays out a radix-8 switch of preempting PVC arbiters in
// which a fast flow's packet preempts a slow flow's mid-flight, twice.
func preemptRig(deliver func(*noc.Packet)) *rig {
	const radix = 8
	vticks := []noc.VTime{2000, 20, 50, 50, 0, 0, 0, 0}
	r := &rig{
		cfg:     testConfig(),
		newArb:  func(int) arb.Arbiter { return arb.NewPVC(radix, vticks, 10) },
		observe: deliver,
	}
	var seq traffic.Sequence
	slow := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.004, PacketLength: 8}
	fast := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.4, PacketLength: 8}
	r.flows = append(r.flows,
		traffic.Flow{Spec: slow, Gen: traffic.NewTrace(&seq, slow, []noc.Cycle{0, 40})},
		traffic.Flow{Spec: fast, Gen: traffic.NewTrace(&seq, fast, []noc.Cycle{3, 44})})
	for i := 2; i < 4; i++ {
		fs := noc.FlowSpec{Src: i, Dst: i, Class: noc.GuaranteedBandwidth, Rate: 0.1, PacketLength: 4}
		r.flows = append(r.flows, traffic.Flow{Spec: fs, Gen: traffic.NewBernoulli(&seq, fs, 0.1, uint64(i))})
	}
	return r
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
