package fabric

import (
	"bytes"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// tap is a generator
// that can be shut for good, forwarding the Scheduler face exactly when
// the wrapped generator has one.
type tap struct {
	g   traffic.Generator
	off bool
}

func (v *tap) Tick(now noc.Cycle, queued int) *noc.Packet {
	if v.off {
		return nil
	}
	return v.g.Tick(now, queued)
}

type schedTap struct {
	tap
	s traffic.Scheduler
}

func (v *schedTap) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if v.off {
		return 0, false
	}
	return v.s.NextArrival(from, queued)
}

func (v *schedTap) Emit(now noc.Cycle) *noc.Packet {
	if v.off {
		return nil
	}
	return v.s.Emit(now)
}

func newTap(g traffic.Generator) (traffic.Generator, *tap) {
	if s, ok := g.(traffic.Scheduler); ok {
		v := &schedTap{tap{g: g}, s}
		return v, &v.tap
	}
	v := &tap{g: g}
	return v, v
}

const lateAddGroups = 3

// lateAddMaxFlows caps the flows a schedule adds: an add past it is a
// plain cycle. The polled reference never removes a flow, so it walks
// every flow ever added, shut or not, on every cycle; without a cap an
// input that adds a flow on every other byte costs the square of its
// length, and the fuzzer crawls. No seed of
// TestSourcesLateAddRetireMatchesPolled adds more than 66.
const lateAddMaxFlows = 128

// Generator kinds of the late-add schedules. kindClosedLoop is fed a
// completion for each of its packets admitted, so its schedule moves
// with admission and its short deadlines fire while packets wait.
const (
	kindBernoulli = iota
	kindPeriodic
	kindBacklogged
	kindBursty
	kindClosedLoop
	kindSparse
	lateAddKinds
)

// lateAddSet is one side of the differential: a source set, its packet
// sequence, the taps of the flows added so far, and per flow its
// closed-loop generator (nil for the other kinds).
type lateAddSet struct {
	s    *Sources
	seq  traffic.Sequence
	taps []*tap
	kind []int
	cl   []*traffic.ClosedLoop
}

func newLateAddSet(polled bool) *lateAddSet {
	r := &lateAddSet{s: NewSources(lateAddGroups)}
	if polled {
		r.s.DisableEventDriven()
	}
	return r
}

// add attaches the next flow. Its packets carry the flow index in Dst,
// so a packet names its flow; the generator's parameters and seed depend
// only on (kind, flow index), so both sides build identical generators.
func (r *lateAddSet) add(kind, group int) {
	i := len(r.taps)
	spec := noc.FlowSpec{Src: group, Dst: i, Class: noc.BestEffort, PacketLength: 1 + i%4}
	seed := uint64(7*i + 1)
	var g traffic.Generator
	var cl *traffic.ClosedLoop
	switch kind {
	case kindBernoulli:
		g = traffic.NewBernoulli(&r.seq, spec, 0.3, seed)
	case kindPeriodic:
		g = traffic.NewPeriodic(&r.seq, spec, noc.CycleOf(uint64(3+i%5)), noc.CycleOf(uint64(i%3)))
	case kindBacklogged:
		g = traffic.NewBacklogged(&r.seq, spec, 1+i%3)
	case kindBursty:
		g = traffic.NewBursty(&r.seq, spec, 0.4, 3, seed)
	case kindClosedLoop:
		cl = traffic.NewClosedLoop(&r.seq, spec, traffic.ClosedLoopConfig{
			Users: 1 + i%3, ThinkMin: noc.CycleOf(uint64(i % 2)), ThinkMax: noc.CycleOf(uint64(4 + i%40)),
			SizeMax: 1 + i%6, Timeout: noc.CycleOf(uint64(6 + i%30)),
		}, seed)
		g = cl
	case kindSparse:
		g = traffic.NewBernoulli(&r.seq, spec, 0.02, seed)
	}
	gen, v := newTap(g)
	r.taps = append(r.taps, v)
	r.kind = append(r.kind, kind)
	r.cl = append(r.cl, cl)
	r.s.Add(traffic.Flow{Spec: spec, Gen: gen}, group)
}

// lateAddCoverage counts what the schedules run so far exercised;
// capped counts the adds lateAddMaxFlows turned into plain cycles.
type lateAddCoverage struct {
	lateAdds, retiredEmpty, retiredQueued, shutOnly, admitted, completed, timedOut, capped int
}

// checkLateAddSchedule interprets ops as a schedule of mid-run adds,
// retires, plain shut-offs and admission patterns, and drives it through
// an event-driven set that retires and a polled reference that never
// removes anything. Everything observable must agree every cycle:
// injection counts, admitted packets (ID, flow, CreatedAt), group
// depths; then the drained remainders, and finally the state of every
// surviving generator's RNG stream. cov accumulates across calls.
func checkLateAddSchedule(t *testing.T, ops []byte, cov *lateAddCoverage) {
	t.Helper()
	ev, ref := newLateAddSet(false), newLateAddSet(true)
	var live []int // flows not shut
	pos := 0
	next := func() byte {
		if pos < len(ops) {
			pos++
			return ops[pos-1]
		}
		return 0
	}
	// same holds admission k (a cycle, or a step of the drain) of group g
	// on both sides to one packet.
	same := func(what string, k uint64, g int, pe, pr *noc.Packet) {
		t.Helper()
		if (pe == nil) != (pr == nil) {
			t.Fatalf("%s %d group %d: event-driven admitted %v, polled %v", what, k, g, pe, pr)
		}
		if pe != nil && (pe.ID != pr.ID || pe.Dst != pr.Dst || pe.CreatedAt != pr.CreatedAt) {
			t.Fatalf("%s %d group %d: event-driven packet (id %d flow %d created %d), polled (id %d flow %d created %d)",
				what, k, g, pe.ID, pe.Dst, pe.CreatedAt, pr.ID, pr.Dst, pr.CreatedAt)
		}
	}

	var now noc.Cycle
	for ; pos < len(ops) && now < 4000; now++ {
		b := next()
		v := int(b >> 3)
		switch b % 8 {
		case 0, 1:
			if len(ev.taps) >= lateAddMaxFlows {
				cov.capped++
				break
			}
			ev.add(v%lateAddKinds, v/lateAddKinds%lateAddGroups)
			ref.add(v%lateAddKinds, v/lateAddKinds%lateAddGroups)
			live = append(live, len(ev.taps)-1)
			if now > 0 {
				cov.lateAdds++
			}
		case 2, 3:
			if len(live) == 0 {
				break
			}
			k := v % len(live)
			i := live[k]
			live = append(live[:k], live[k+1:]...)
			ev.taps[i].off, ref.taps[i].off = true, true
			if b%8 == 3 {
				cov.shutOnly++ // the event side keeps a stale calendar entry
				break
			}
			if ev.s.Flow(i).Queued() > 0 {
				cov.retiredQueued++
			} else {
				cov.retiredEmpty++
			}
			ev.s.Retire(i)
		}
		accept := next()
		if ie, ir := ev.s.Generate(now), ref.s.Generate(now); ie != ir {
			t.Fatalf("cycle %d: event-driven generated %d packets, polled %d", now, ie, ir)
		}
		for g := 0; g < lateAddGroups; g++ {
			mode := accept >> (2 * g) & 3
			try := func(p *noc.Packet) bool { return mode >= 2 || (mode == 1 && p.ID%2 == 0) }
			pe, pr := ev.s.AdmitGroup(g, try), ref.s.AdmitGroup(g, try)
			same("cycle", now.Uint(), g, pe, pr)
			if pe != nil {
				cov.admitted++
				if cl := ev.cl[pe.Dst]; cl != nil {
					pe.DeliveredAt, pr.DeliveredAt = now, now
					cl.Completed(pe)
					ref.cl[pr.Dst].Completed(pr)
					cov.completed++
				}
			}
			if de, dr := ev.s.GroupQueued(g), ref.s.GroupQueued(g); de != dr {
				t.Fatalf("cycle %d group %d: event-driven depth %d, polled %d", now, g, de, dr)
			}
		}
	}

	// Shut what is left (no retire: the calendar keeps the survivors'
	// announced arrivals for the RNG check) and drain both sides.
	for _, i := range live {
		ev.taps[i].off, ref.taps[i].off = true, true
	}
	all := func(*noc.Packet) bool { return true }
	for g := 0; g < lateAddGroups; g++ {
		for k := uint64(0); ev.s.GroupQueued(g) > 0 || ref.s.GroupQueued(g) > 0; k++ {
			same("drain", k, g, ev.s.AdmitGroup(g, all), ref.s.AdmitGroup(g, all))
		}
	}

	// RNG state. The polled generator has drawn through cycle now-1; the
	// calendar-driven one has drawn ahead, through its announced arrival.
	// Tick the polled one up to its next emission — it must be that
	// arrival — emit on the other, and the two streams are level: they
	// must then agree on every further cycle. A closed loop draws nothing
	// ahead: its whole state must already agree.
	for i, cl := range ev.cl {
		if cl == nil {
			continue
		}
		cov.timedOut += int(cl.TimedOut)
		if e, r := cl.AppendState(nil), ref.cl[i].AppendState(nil); string(e) != string(r) {
			t.Fatalf("flow %d: closed-loop state differs after the run: event-driven %x, polled %x", i, e, r)
		}
	}
	filed := ev.s.filed()
	for _, i := range live {
		ge, gr := ev.taps[i].g, ref.taps[i].g
		from := now
		switch ev.kind[i] {
		case kindBernoulli, kindBursty, kindSparse:
			at, found := noc.Cycle(0), false
			for _, e := range filed {
				if int(e.fi) == i {
					at, found = e.at, true
				}
			}
			if !found {
				t.Fatalf("flow %d: a live scheduling flow has no calendar entry", i)
			}
			c := now
			for gr.Tick(c, 0) == nil {
				if c++; c > at {
					t.Fatalf("flow %d: calendar announced cycle %d, the polled stream passed it silently", i, at)
				}
			}
			if c != at {
				t.Fatalf("flow %d: calendar announced cycle %d, the polled stream emits at %d", i, at, c)
			}
			ge.(traffic.Scheduler).Emit(at)
			from = at + 1
		case kindClosedLoop:
		default:
			continue // no random stream
		}
		for c := from; c < from+64; c++ {
			if pe, pr := ge.Tick(c, 0), gr.Tick(c, 0); (pe == nil) != (pr == nil) {
				t.Fatalf("flow %d: generator streams diverge at cycle %d after the run", i, c)
			}
		}
	}
}

// lateAddSeed expands a seed into a schedule.
func lateAddSeed(seed uint64, n int) []byte {
	rng := traffic.NewRNG(seed)
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
		// Thin the structural ops out so flows live long enough to queue,
		// block and be retired mid-queue: three in four become plain cycles.
		if i%2 == 0 && ops[i]%8 < 4 && rng.Intn(4) != 0 {
			ops[i] |= 4
		}
	}
	return ops
}

// TestSourcesLateAddRetireMatchesPolled is the differential for the
// running-engine operations: flows added after the first Generate arm
// from the cycle the polled walk first ticks them, a closed loop fed
// from admission fires at the cycles it would be ticked, and retiring
// shut flows — with empty and with non-empty queues — changes neither
// the packet stream nor the admission order.
func TestSourcesLateAddRetireMatchesPolled(t *testing.T) {
	var total lateAddCoverage
	for seed := uint64(1); seed <= 24; seed++ {
		checkLateAddSchedule(t, lateAddSeed(seed, 1600), &total)
	}
	if total.lateAdds < 100 || total.retiredEmpty < 20 || total.retiredQueued < 20 || total.shutOnly < 20 || total.admitted < 1000 ||
		total.completed < 200 || total.timedOut < 20 {
		t.Fatalf("schedules lost coverage: %+v", total)
	}
	if total.capped != 0 {
		t.Fatalf("the seeds tried %d adds past lateAddMaxFlows", total.capped)
	}
}

// FuzzSourcesLateAdd lets the fuzzer search the schedule space of
// TestSourcesLateAddRetireMatchesPolled.
func FuzzSourcesLateAdd(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(lateAddSeed(seed, 400))
	}
	// Retire the only flow of a group with the pointer behind it, then add.
	f.Add([]byte{0x10, 0xff, 0x04, 0xff, 0x04, 0xff, 0x02, 0x00, 0x10, 0xff, 0x04, 0xff})
	// An add on every cycle, admitting everything: lateAddMaxFlows turns
	// the last adds into plain cycles.
	f.Add(bytes.Repeat([]byte{0x08, 0xff}, 200))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkLateAddSchedule(t, ops, new(lateAddCoverage))
	})
}
