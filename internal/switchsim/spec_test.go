package switchsim

import (
	"slices"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/spec"
	"swizzleqos/internal/traffic"
)

// The engine walks one masked cycle with or without a fault schedule or an
// admission gate: dead and stalled outputs leave the visit set as masks, a
// retransmission backoff ends as a deadline that marks its input, offers
// stand across cycles, admission skips inputs and remembers refusals, the
// sources fire from a calendar and the arbiters tick on their deadlines.
// The reference model (internal/spec) does none of that and shares no
// code with the engine: it visits every port every cycle, derives every
// request afresh and ticks every arbiter every cycle. The lock step below
// holds the two to the same behaviour.

// delivery records one packet delivery for trace comparison.
type delivery struct {
	id                                    uint64
	src, dst                              int
	class                                 noc.Class
	created, enqueued, granted, delivered noc.Cycle
}

// rig is one side of a scenario: the configuration, arbiters, gate,
// flows, fault schedule and delivery observer. A scenario builds one rig
// per side of a lock-step run, so the engine and the spec share no
// state; engine builds the switch from it and model the reference.
type rig struct {
	cfg     Config
	newArb  func(output int) arb.Arbiter
	faults  *faults.Config
	observe func(*noc.Packet) // nil: none
	release func(*noc.Packet) // nil: none
	flows   []traffic.Flow
}

// engine builds the switch under test.
func (r *rig) engine(t *testing.T) *Switch {
	t.Helper()
	sw := mustNew(t, r.cfg, r.newArb)
	if r.observe != nil {
		sw.OnDeliver(r.observe)
	}
	if r.release != nil {
		sw.OnRelease(r.release)
	}
	if r.faults != nil {
		if err := sw.SetFaults(*r.faults); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range r.flows {
		addFlow(t, sw, f)
	}
	return sw
}

// model builds the reference model (internal/spec).
func (r *rig) model(t *testing.T) *spec.Switch {
	t.Helper()
	m, err := spec.New(spec.Config{
		Radix: r.cfg.Radix, BEBufferFlits: r.cfg.BEBufferFlits, GLBufferFlits: r.cfg.GLBufferFlits,
		GBBufferFlits: r.cfg.GBBufferFlits, PacketChaining: r.cfg.PacketChaining,
		AdmissionGate: r.cfg.AdmissionGate, Faults: r.faults,
	}, r.newArb)
	if err != nil {
		t.Fatal(err)
	}
	if r.observe != nil {
		m.OnDeliver(r.observe)
	}
	if r.release != nil {
		m.OnRelease(r.release)
	}
	for _, f := range r.flows {
		if err := m.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// lockStep is one lock-step run: the engine (ev), the reference model
// (ref), each built from its own rig of one scenario, and what the run saw.
type lockStep struct {
	ev         *Switch
	ref        *spec.Switch
	traces     [2][]delivery
	deadCycles uint64 // output-cycles of fail-stopped outputs
	remembered int    // flows held in refusal memory, summed over cycles
	probeTries uint64 // tries checkSkippedInputs made on ev
}

// newLockStep builds both sides from build, called once per side with
// that side's delivery recorder.
func newLockStep(t *testing.T, build func(deliver func(*noc.Packet)) *rig) *lockStep {
	t.Helper()
	r := &lockStep{}
	record := func(side int) func(*noc.Packet) {
		return func(p *noc.Packet) {
			r.traces[side] = append(r.traces[side], delivery{p.ID, p.Src, p.Dst, p.Class, p.CreatedAt, p.EnqueuedAt, p.GrantedAt, p.DeliveredAt})
		}
	}
	r.ev = build(record(0)).engine(t)
	r.ref = build(record(1)).model(t)
	return r
}

// countersOf is what the engine and the model must agree on after every
// cycle: every counter but SkippedAdmits, which only the engine has
// (checkSkippedInputs holds it to its promise instead).
func countersOf(s *Switch) spec.Counters {
	return spec.Counters{
		Injected: s.Injected, Admitted: s.Admitted, Delivered: s.Delivered, Dropped: s.Dropped,
		ArbCycles: s.ArbCycles, IdleCycles: s.IdleCycles, DataCycles: s.DataCycles,
		SkippedOutputs: s.SkippedOutputs,
		Chained:        s.Chained, Preempted: s.Preempted, WastedFlits: s.WastedFlits,
		Faults: s.FaultTotals(),
	}
}

// run steps both sides for the given cycles and after every one demands
// the same counters, fault counters included, and on the engine's side a
// refusal memory and a skip mask that hide nothing.
func (r *lockStep) run(t *testing.T, cycles noc.Cycle) {
	t.Helper()
	for end := r.ev.Now() + cycles; r.ev.Now() < end; {
		r.ev.Step()
		r.ref.Step()
		if err := r.ev.Err(); err != nil {
			t.Fatalf("the engine froze: %v", err)
		}
		if err := r.ref.Err(); err != nil {
			t.Fatalf("the model stopped: %v", err)
		}
		r.deadCycles += uint64(arb.MaskCount(r.ev.deadOut))
		r.remembered += checkRefusals(t, r.ev)
		r.probeTries += checkSkippedInputs(t, r.ev)
		want := r.ref.Counters
		want.Tries = 0
		if got := countersOf(r.ev); got != want {
			t.Fatalf("cycle %d: counters diverge:\nengine %+v\nspec   %+v", r.ev.Now()-1, got, want)
		}
	}
}

// finish demands the same delivery trace and that every output-cycle is
// accounted exactly once: a flit, an arbitration, an idle cycle (visited
// or skipped), a preemption, a dead output or a live stalled one.
func (r *lockStep) finish(t *testing.T) {
	t.Helper()
	if a, b := r.traces[0], r.traces[1]; !slices.Equal(a, b) {
		for k := range min(len(a), len(b)) {
			if a[k] != b[k] {
				t.Fatalf("delivery %d differs: engine %+v, spec %+v", k, a[k], b[k])
			}
		}
		t.Fatalf("delivery traces differ in length: engine %d, spec %d", len(a), len(b))
	}
	sw := r.ev
	got := sw.DataCycles + sw.ArbCycles + sw.IdleCycles + sw.Preempted + r.deadCycles + sw.FaultTotals().StallCycles
	if want := uint64(sw.cfg.Radix) * uint64(sw.Now()); got != want {
		t.Fatalf("output-cycle accounting %d != radix*cycles %d", got, want)
	}
	if sw.SkippedOutputs > sw.IdleCycles {
		t.Fatalf("SkippedOutputs %d exceeds IdleCycles %d (skips are a subset of idleness)", sw.SkippedOutputs, sw.IdleCycles)
	}
}

// runLockStep builds both sides, runs them for the given cycles and
// finishes.
func runLockStep(t *testing.T, cycles noc.Cycle, build func(deliver func(*noc.Packet)) *rig) *lockStep {
	t.Helper()
	r := newLockStep(t, build)
	r.run(t, cycles)
	r.finish(t)
	return r
}

// checkSkippedInputs holds the admission skip mask to its promise after a
// cycle: a skipped input's scan would move nothing, its heads neither
// doomed nor fitting their buffers. The probing try refuses every head
// and names no buffer, so the probe leaves rotation and queues as they
// were; it returns the tries the probe made.
func checkSkippedInputs(t *testing.T, sw *Switch) uint64 {
	t.Helper()
	before := sw.sources.Tries()
	for _, in := range sw.inputs {
		if !arb.MaskHas(sw.sources.SkipMask(), in.id) {
			continue
		}
		sw.sources.AdmitGroup(in.id, func(p *noc.Packet) bool {
			if arb.MaskHas(sw.deadIn, p.Src) || arb.MaskHas(sw.deadOut, p.Dst) || in.bufferFor(p.Class, p.Dst).CanAccept(p.Length) {
				t.Fatalf("cycle %d: input %d is skipped but its flow %d->%d head (packet %d) would be admitted",
					sw.Now(), in.id, p.Src, p.Dst, p.ID)
			}
			return false
		})
	}
	return sw.sources.Tries() - before
}

// TestSpecMatchesSwitch drives the engine and the reference model in lock
// step over identical workloads (lockStep): every counter after every
// cycle but SkippedAdmits, the fault counters, the complete delivery
// trace and the output-cycle identity. The scenarios run fault-free,
// under an admission gate, under GSF's gate and under live fault
// schedules: fail-stops, stalls, corruption with retry, and all of them
// with GSF; and with preempting arbiters. At low load the engine must
// skip, and on the converging-VOQ shapes it must remember refusals and
// make fewer admission tries than the model, which tries every head.
func TestSpecMatchesSwitch(t *testing.T) {
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
			r := runLockStep(t, sc.cycles, sc.rig)
			ev := r.ev
			if ev.Delivered == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if sc.load > 0 && sc.load <= 0.05 && (ev.SkippedOutputs == 0 || ev.SkippedAdmits == 0) {
				t.Errorf("low-load run skipped nothing: outputs=%d admits=%d", ev.SkippedOutputs, ev.SkippedAdmits)
			}
			if sc.hot > 0 && (r.remembered == 0 || ev.sources.Tries()-r.probeTries >= r.ref.Tries) {
				t.Errorf("converging VOQs: the engine remembered %d refusals and made %d tries, the spec %d",
					r.remembered, ev.sources.Tries()-r.probeTries, r.ref.Tries)
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
				t.Errorf("under GSF the engine skipped %d admission scans and remembered %d refusals",
					ev.SkippedAdmits, r.remembered)
			}
		})
	}
	// Preempting PVC arbiters exercise the preemption path's mask
	// maintenance (victim PushFront, channel teardown, immediate regrant):
	// the two-preemption trace, and a saturated radix-8 load under a live
	// fault schedule.
	t.Run("preemptionTrace", func(t *testing.T) {
		if r := runLockStep(t, 400, preemptRig); r.ev.Preempted == 0 {
			t.Fatal("scenario exercised no preemption")
		}
	})
	t.Run("preemptionLive", func(t *testing.T) {
		sc := skipScenario{radix: 8, preempt: true, load: 0.3, faults: liveSchedule(8)}
		r := runLockStep(t, 2000, sc.rig)
		if r.ev.Preempted == 0 || r.ev.FaultTotals().Retransmissions == 0 {
			t.Fatalf("the faulted PVC run preempted %d packets and retried %d", r.ev.Preempted, r.ev.FaultTotals().Retransmissions)
		}
	})
}

// FuzzSpec decodes a switch, a load, chaining or preemption, an admission
// gate and a fault schedule (corruption with retries, stall windows,
// input and output fail-stops) from the input and runs the engine against
// the reference model in lock step (lockStep).
func FuzzSpec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 1, 0, 7, 16, 2, 3, 1, 30, 20, 5, 2, 1, 2, 40, 6, 3, 90})
	f.Add([]byte{0x80 | 2, 40, 2, 0, 3, 40, 1, 4, 3, 10, 50, 65, 20, 100, 1, 1, 0, 60, 64, 120})
	f.Add([]byte{5, 0, 0, 3, 9, 63, 7, 2, 2, 5, 5, 3, 5, 9, 2, 0, 2, 5, 1, 3, 20})
	f.Add([]byte{3, 200, 1, 2, 1, 4, 3, 6, 3, 0, 255, 1, 0, 0, 255, 2, 1, 1, 0, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		b := next()
		sc := skipScenario{radix: 4 + b&15}
		if b&0x80 != 0 {
			sc.radix = 66 + b&3 // two mask words
		}
		radix := sc.radix
		sc.load = float64(next()) / 400 // 0: backlogged
		switch next() % 3 {
		case 1:
			sc.chaining = true
		case 2:
			sc.preempt = true
		}
		if k := next() % 5; k > 0 {
			sc.gate = func(now noc.Cycle, p *noc.Packet) bool { return (uint64(now)+uint64(p.Src))%uint64(k+1) != 0 }
		}
		cfg := faults.Config{
			Seed:        uint64(next()),
			CorruptProb: float64(next()%64) / 256,
			MaxRetries:  next() % 5,
			BackoffBase: noc.CycleOf(uint64(next() % 9)),
			BackoffCap:  noc.CycleOf(uint64(next() % 40)),
		}
		for n := next() % 4; n > 0; n-- {
			from := noc.CycleOf(uint64(next() * 3))
			cfg.Stalls = append(cfg.Stalls, faults.StallWindow{Port: next() % radix, From: from, Until: from + noc.CycleOf(uint64(next()))})
		}
		for n := next() % 3; n > 0; n-- {
			b := next()
			cfg.FailStops = append(cfg.FailStops, faults.FailStop{Input: b&1 == 1, Port: next() % radix, At: noc.CycleOf(uint64(next() * 3))})
		}
		sc.faults = &cfg
		runLockStep(t, 800, sc.rig)
	})
}

// TestFailStopForgetsRefusals: input 0's best-effort buffer is always full
// of short packets for the congested output 1, so its long packets for
// output 2 are refused and remembered as waiting on that buffer. When
// output 2 fail-stops, nothing in the buffer is bound there and nothing
// drains it, yet the remembered heads are now doomed: the fail-stop must
// forget the refusal, or they are dropped cycles late.
func TestFailStopForgetsRefusals(t *testing.T) {
	build := func(deliver func(*noc.Packet)) *rig {
		r := &rig{
			cfg:     Config{Radix: 4, BEBufferFlits: 16, GLBufferFlits: 4, GBBufferFlits: 4},
			newArb:  lrgFactory(4),
			faults:  &faults.Config{FailStops: []faults.FailStop{{Port: 2, At: 300}}},
			observe: deliver,
		}
		var seq traffic.Sequence
		for src := 0; src < 4; src++ {
			r.flows = append(r.flows, backloggedBE(&seq, src, 1, 2))
		}
		r.flows = append(r.flows, backloggedBE(&seq, 0, 2, 16))
		return r
	}
	r := runLockStep(t, 600, build)
	if r.remembered == 0 || r.ev.Dropped == 0 {
		t.Fatalf("the scenario remembered %d refusals and dropped %d packets", r.remembered, r.ev.Dropped)
	}
}
