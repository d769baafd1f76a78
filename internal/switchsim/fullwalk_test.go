package switchsim

import (
	"fmt"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// The switch walks one masked cycle with or without a fault schedule or an
// admission gate: dead and stalled outputs leave the visit set as masks, a
// retransmission backoff ends as a deadline that marks its input, and
// admission skips inputs and remembers refusals under every schedule. What
// those masks skip survives here as the oracle, the cycle that used to run
// whenever a schedule or a gate was installed: every input's admission is
// scanned every cycle with no refusal memory, every buffered idle input's
// offer is re-derived every cycle, and every output is visited, a dead or
// stalled one (read from the schedule itself, port by port) doing nothing.
// What happens inside a visited output (serveOutput: preemption, transfer,
// CRC retry, chaining, grant), fail-stop handling and the arbiter clock are
// not what the masks change and are shared.
type fullWalk struct {
	s      *Switch
	stalls uint64 // live stalled output-cycles met
}

func (o *fullWalk) step() {
	s := o.s
	if s.err != nil {
		return
	}
	now := s.now
	if s.faults != nil {
		for _, f := range s.faults.BeginCycle(now) {
			s.applyFailStop(now, f)
		}
	}
	s.Injected += s.sources.Generate(now)
	o.admit(now)
	o.serveOutputs(now)
	s.clocks.Tick(now)
	s.now++
}

// admit scans every input every cycle and names no refusal.
func (o *fullWalk) admit(now noc.Cycle) {
	s := o.s
	try := func(p *noc.Packet) bool {
		if s.faults != nil && (arb.MaskHas(s.deadIn, p.Src) || arb.MaskHas(s.deadOut, p.Dst)) {
			s.dropPkt(p)
			return true
		}
		buf := s.inputs[p.Src].bufferFor(p.Class, p.Dst)
		if !buf.CanAccept(p.Length) {
			return false
		}
		if s.cfg.AdmissionGate != nil && !s.cfg.AdmissionGate(now, p) {
			return false
		}
		p.EnqueuedAt = now
		buf.Push(p)
		s.notePush(s.inputs[p.Src], p.Class, p.Dst)
		s.Admitted++
		if obs := s.outputs[p.Dst].obs; obs != nil {
			obs.PacketArrived(now, p)
		}
		return true
	}
	for i := range s.inputs {
		s.sources.AdmitGroup(i, try)
	}
}

// halted reports whether output id moves nothing and grants nothing in
// cycle now, counting the cycle of a live stalled one.
func (o *fullWalk) halted(id int, now noc.Cycle) bool {
	s := o.s
	if s.faults == nil || arb.MaskHas(s.deadOut, id) {
		return s.faults != nil
	}
	for _, w := range s.faults.Config().Stalls {
		if w.Port == id && now >= w.From && now < w.Until {
			o.stalls++
			return true
		}
	}
	return false
}

// serveOutputs re-derives every buffered idle input's offer and visits
// every output. SkippedOutputs follows the masked walk's rule (a live,
// unstalled output with neither a transmission nor an offer once the
// offers are current), counted here from the full refresh.
func (o *fullWalk) serveOutputs(now noc.Cycle) {
	s := o.s
	for w := range s.visit {
		s.visit[w] = s.inQ[w] &^ s.inBusy[w]
	}
	s.offers.Refresh(s.visit, now)
	halted := make([]bool, len(s.outputs))
	for _, out := range s.outputs {
		halted[out.id] = o.halted(out.id, now)
		if !halted[out.id] && out.tx == nil && !arb.MaskHas(s.offers.Offered(), out.id) {
			s.SkippedOutputs++
		}
	}
	for _, out := range s.outputs {
		if s.err != nil {
			return
		}
		if !halted[out.id] {
			s.serveOutput(out, now)
		}
	}
}

// walkCounters is what the masked walk and the oracle must agree on after
// every cycle: every counter but SkippedAdmits, which only the masked walk
// has (checkSkippedInputs holds it to its promise instead).
type walkCounters struct {
	c                               [7]uint64
	skippedOutputs                  uint64
	chained, preempted, wastedFlits uint64
	faults                          faults.Counters
}

func countersOf(s *Switch) walkCounters {
	return walkCounters{
		c:              [7]uint64{s.Injected, s.Admitted, s.Delivered, s.Dropped, s.ArbCycles, s.IdleCycles, s.DataCycles},
		skippedOutputs: s.SkippedOutputs,
		chained:        s.Chained, preempted: s.Preempted, wastedFlits: s.WastedFlits,
		faults: s.FaultTotals(),
	}
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

// walkRun is one lock-step run: the masked walk (ev), the oracle's switch
// (ref) and what the run saw.
type walkRun struct {
	ev, ref    *Switch
	oracle     *fullWalk
	traces     [2][]delivery
	deadCycles uint64 // output-cycles of fail-stopped outputs
	remembered int    // flows held in refusal memory, summed over cycles
	probeTries uint64 // tries checkSkippedInputs made on ev
}

// lockStep builds twin switches with build, drives the first on Step and
// the second on the oracle for the given cycles, and after every cycle
// demands the same counters and fault counters, and on the masked side a
// refusal memory and a skip mask that hide nothing. At the end it demands
// the same delivery trace, the oracle's own stall count, and that every
// output-cycle is accounted exactly once: a flit, an arbitration, an idle
// cycle (visited or skipped), a preemption, a dead output or a live
// stalled one.
func lockStep(t *testing.T, cycles noc.Cycle, build func(deliver func(*noc.Packet)) *Switch) *walkRun {
	t.Helper()
	r := &walkRun{}
	r.ev = build(func(p *noc.Packet) { r.traces[0] = append(r.traces[0], delivery{p.ID, p.Src, p.Dst, p.DeliveredAt}) })
	r.ref = build(func(p *noc.Packet) { r.traces[1] = append(r.traces[1], delivery{p.ID, p.Src, p.Dst, p.DeliveredAt}) })
	r.oracle = &fullWalk{s: r.ref}
	for r.ev.Now() < cycles {
		r.ev.Step()
		r.oracle.step()
		for v, sw := range []*Switch{r.ev, r.ref} {
			if err := sw.Err(); err != nil {
				t.Fatalf("side %d froze: %v", v, err)
			}
		}
		r.deadCycles += uint64(arb.MaskCount(r.ev.deadOut))
		r.remembered += checkRefusals(t, r.ev)
		r.probeTries += checkSkippedInputs(t, r.ev)
		if got, want := countersOf(r.ev), countersOf(r.ref); got != want {
			t.Fatalf("cycle %d: counters diverge:\nmasked walk %+v\nfull walk   %+v", r.ev.Now()-1, got, want)
		}
	}
	if fmt.Sprint(r.traces[0]) != fmt.Sprint(r.traces[1]) {
		t.Fatalf("delivery traces differ (%d and %d deliveries)", len(r.traces[0]), len(r.traces[1]))
	}
	if got := r.ev.FaultTotals().StallCycles; got != r.oracle.stalls {
		t.Fatalf("the injector counted %d stall cycles, the full walk met %d", got, r.oracle.stalls)
	}
	sw := r.ev
	got := sw.DataCycles + sw.ArbCycles + sw.IdleCycles + sw.Preempted + r.deadCycles + sw.FaultTotals().StallCycles
	if want := uint64(sw.cfg.Radix) * uint64(sw.Now()); got != want {
		t.Fatalf("output-cycle accounting %d != radix*cycles %d", got, want)
	}
	if sw.SkippedOutputs > sw.IdleCycles {
		t.Fatalf("SkippedOutputs %d exceeds IdleCycles %d (skips are a subset of idleness)", sw.SkippedOutputs, sw.IdleCycles)
	}
	return r
}

// FuzzFaultWalk decodes a switch, a load, chaining or preemption, an
// admission gate and a fault schedule (corruption with retries, stall
// windows, input and output fail-stops) from the input and runs the
// masked walk against the full-walk oracle in lock step (lockStep).
func FuzzFaultWalk(f *testing.F) {
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
		lockStep(t, 800, func(deliver func(*noc.Packet)) *Switch { return buildSkipSwitch(t, sc, deliver) })
	})
}

// TestFailStopForgetsRefusals: input 0's best-effort buffer is always full
// of short packets for the congested output 1, so its long packets for
// output 2 are refused and remembered as waiting on that buffer. When
// output 2 fail-stops, nothing in the buffer is bound there and nothing
// drains it, yet the remembered heads are now doomed: the fail-stop must
// forget the refusal, or they are dropped cycles late.
func TestFailStopForgetsRefusals(t *testing.T) {
	build := func(deliver func(*noc.Packet)) *Switch {
		sw := mustNew(t, Config{Radix: 4, BEBufferFlits: 16, GLBufferFlits: 4, GBBufferFlits: 4}, lrgFactory(4))
		sw.OnDeliver(deliver)
		if err := sw.SetFaults(faults.Config{FailStops: []faults.FailStop{{Port: 2, At: 300}}}); err != nil {
			t.Fatal(err)
		}
		var seq traffic.Sequence
		for src := 0; src < 4; src++ {
			addFlow(t, sw, backloggedBE(&seq, src, 1, 2))
		}
		addFlow(t, sw, backloggedBE(&seq, 0, 2, 16))
		return sw
	}
	r := lockStep(t, 600, build)
	if r.remembered == 0 || r.ev.Dropped == 0 {
		t.Fatalf("the scenario remembered %d refusals and dropped %d packets", r.remembered, r.ev.Dropped)
	}
}
