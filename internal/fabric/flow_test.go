package fabric

import (
	"fmt"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// buildSources assembles a mixed-generator source set: every stock
// generator kind, several flows per group, so the differential test
// exercises the calendar's tie-breaking, the blocked re-arm, and the
// group depth accounting together.
func buildSources(seq *traffic.Sequence) *Sources {
	mk := func(dst int, class noc.Class, rate float64) noc.FlowSpec {
		return noc.FlowSpec{Src: 0, Dst: dst, Class: class, Rate: rate, PacketLength: 4}
	}
	s := NewSources(3)
	s.Add(traffic.Flow{Spec: mk(1, noc.BestEffort, 0), Gen: traffic.NewBernoulli(seq, mk(1, noc.BestEffort, 0), 0.4, 11)}, 0)
	s.Add(traffic.Flow{Spec: mk(2, noc.BestEffort, 0), Gen: traffic.NewBursty(seq, mk(2, noc.BestEffort, 0), 0.5, 3, 22)}, 0)
	s.Add(traffic.Flow{Spec: mk(3, noc.GuaranteedLatency, 0), Gen: traffic.NewPeriodic(seq, mk(3, noc.GuaranteedLatency, 0), 9, 4)}, 1)
	s.Add(traffic.Flow{Spec: mk(1, noc.BestEffort, 0), Gen: traffic.NewBacklogged(seq, mk(1, noc.BestEffort, 0), 2)}, 1)
	s.Add(traffic.Flow{Spec: mk(2, noc.BestEffort, 0), Gen: traffic.NewTrace(seq, mk(2, noc.BestEffort, 0), []noc.Cycle{3, 3, 7, 50, 50, 51, 200})}, 2)
	s.Add(traffic.Flow{Spec: mk(3, noc.BestEffort, 0), Gen: traffic.NewBernoulli(seq, mk(3, noc.BestEffort, 0), 0.1, 33)}, 2)
	return s
}

// driveSources runs generation plus a deterministic admission pattern
// and returns a trace of everything observable: injections, admitted
// packet IDs, and per-group depths each cycle.
func driveSources(s *Sources, cycles noc.Cycle) []uint64 {
	var trace []uint64
	for t := noc.Cycle(0); t < cycles; t++ {
		trace = append(trace, s.Generate(t))
		for g := 0; g < s.Groups(); g++ {
			// A shifting accept pattern: sometimes reject everything,
			// sometimes accept only even-ID heads, sometimes accept all —
			// driving rotation, rejection, and pops through both modes.
			mode := (uint64(t) + uint64(g)) % 3
			p := s.AdmitGroup(g, func(p *noc.Packet) bool {
				switch mode {
				case 0:
					return false
				case 1:
					return p.ID%2 == 0
				default:
					return true
				}
			})
			if p != nil {
				trace = append(trace, p.ID)
			} else {
				trace = append(trace, ^uint64(0))
			}
			trace = append(trace, uint64(s.GroupQueued(g)))
		}
	}
	return trace
}

// TestSourcesEventDrivenMatchesPolled is the whole-layer differential:
// identical flow sets driven through the calendar path and the polled
// path produce bit-identical observable traces.
func TestSourcesEventDrivenMatchesPolled(t *testing.T) {
	var seqA, seqB traffic.Sequence
	ref := buildSources(&seqA)
	ref.DisableEventDriven()
	ev := buildSources(&seqB)

	refTrace := driveSources(ref, 3000)
	evTrace := driveSources(ev, 3000)

	if ref.EventDriven() {
		t.Fatal("reference run must stay polled after DisableEventDriven")
	}
	if !ev.EventDriven() {
		t.Fatal("event run never entered event mode — differential is vacuous")
	}
	if len(refTrace) != len(evTrace) {
		t.Fatalf("trace lengths differ: polled %d, event %d", len(refTrace), len(evTrace))
	}
	for i := range refTrace {
		if refTrace[i] != evTrace[i] {
			t.Fatalf("traces diverge at element %d: polled %d, event %d", i, refTrace[i], evTrace[i])
		}
	}
}

// TestSourcesNilEmit: a generator shut between announcing an arrival and
// its cycle emits nothing; Generate must neither count nor queue it, and
// the flow parks instead of being asked again every cycle.
func TestSourcesNilEmit(t *testing.T) {
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	gen, v := newTap(traffic.NewPeriodic(&seq, spec, 5, 0))
	s := NewSources(1)
	s.Skip(0)
	s.Add(traffic.Flow{Spec: spec, Gen: gen}, 0)
	if got := s.Generate(0); got != 1 {
		t.Fatalf("cycle 0 generated %d, want 1", got)
	}
	heads := 0
	if !arb.MaskHas(s.SkipMask(), 0) {
		heads++ // the new head unskipped the group
	}
	s.Skip(0)
	v.off = true // the calendar still holds the arrival announced for cycle 5
	for c := noc.Cycle(1); c < 20; c++ {
		if got := s.Generate(c); got != 0 {
			t.Fatalf("cycle %d counted %d injections from a shut generator", c, got)
		}
		if !arb.MaskHas(s.SkipMask(), 0) {
			heads++
			s.Skip(0)
		}
	}
	if s.GroupQueued(0) != 1 || heads != 1 || len(s.filed()) != 0 || !s.blocked[0] {
		t.Fatalf("after the nil Emit: depth %d, new heads %d, calendar %d, parked %v",
			s.GroupQueued(0), heads, len(s.filed()), s.blocked[0])
	}
}

// TestSourcesIdleCycleCheap: in event mode an idle cycle must not call
// any generator — pin it by checking a backlogged-only set goes quiet
// once full and wakes exactly on the admission pop.
func TestSourcesEventDrivenBlockedRearm(t *testing.T) {
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	s := NewSources(1)
	s.Add(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 2)}, 0)

	if got := s.Generate(0); got != 1 {
		t.Fatalf("cycle 0 generated %d, want 1", got)
	}
	if got := s.Generate(1); got != 1 {
		t.Fatalf("cycle 1 generated %d, want 1", got)
	}
	// Full at depth 2: further cycles are silent.
	for t2 := noc.Cycle(2); t2 < 10; t2++ {
		if got := s.Generate(t2); got != 0 {
			t.Fatalf("cycle %d generated %d while full, want 0", t2, got)
		}
	}
	// Pop one at cycle 10; the flow re-arms for cycle 11.
	s.Generate(10)
	if p := s.AdmitGroup(0, func(*noc.Packet) bool { return true }); p == nil {
		t.Fatal("admission rejected a queued head")
	}
	if got := s.Generate(11); got != 1 {
		t.Fatalf("cycle 11 generated %d after pop, want 1 (re-armed)", got)
	}
	if got := s.Generate(12); got != 0 {
		t.Fatalf("cycle 12 generated %d, want 0 (full again)", got)
	}
}

// TestSkipMask holds the admission-skip mask to its rules: the engine's
// Skip sets a bit and its Unskip clears the groups it names; a flow queue
// going empty -> nonempty clears its group's bit, and a push behind a head
// does not; AddOwnGroup grows the mask across a 64-group word boundary;
// ForgetSkips, the fail-stop reset, clears every bit.
func TestSkipMask(t *testing.T) {
	var seq traffic.Sequence
	flow := func(src int) traffic.Flow {
		spec := noc.FlowSpec{Src: src, Dst: 0, Class: noc.BestEffort, PacketLength: 1}
		return traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 2)}
	}
	skipped := func(s *Sources) []int {
		var gs []int
		for g := 0; g < s.Groups(); g++ {
			if arb.MaskHas(s.SkipMask(), g) {
				gs = append(gs, g)
			}
		}
		return gs
	}
	s := NewSources(63)
	s.Add(flow(5), 5)
	for _, g := range []int{5, 7, 9, 62} {
		s.Skip(g)
	}
	s.Unskip(7, 9)
	if got := fmt.Sprint(skipped(s)); got != "[5 62]" {
		t.Fatalf("after Skip and Unskip: skipped %s, want [5 62]", got)
	}
	s.Generate(0) // group 5's queue gains its head
	if got := fmt.Sprint(skipped(s)); got != "[62]" {
		t.Fatalf("after a new head in group 5: skipped %s, want [62]", got)
	}
	s.Skip(5)
	s.Generate(1) // a second packet behind the head
	if got := fmt.Sprint(skipped(s)); got != "[5 62]" {
		t.Fatalf("after a push behind a head: skipped %s, want [5 62]", got)
	}

	for g := 63; g < 66; g++ {
		s.AddOwnGroup(flow(g))
		s.Skip(g)
	}
	if len(s.SkipMask()) != 2 {
		t.Fatalf("66 groups in %d mask words, want 2", len(s.SkipMask()))
	}
	if got := fmt.Sprint(skipped(s)); got != "[5 62 63 64 65]" {
		t.Fatalf("after growing past a word: skipped %s, want [5 62 63 64 65]", got)
	}
	s.Generate(2) // the three new groups gain their heads
	if got := fmt.Sprint(skipped(s)); got != "[5 62]" {
		t.Fatalf("after new heads in the grown groups: skipped %s, want [5 62]", got)
	}
	s.Skip(64)
	s.ForgetSkips()
	if got := skipped(s); len(got) != 0 {
		t.Fatalf("after ForgetSkips: skipped %v", got)
	}
}

// EventDriven reports whether Generate uses the arrival calendar for the
// flows that can schedule (meaningful after the first Generate).
func (s *Sources) EventDriven() bool { return s.calReady && !s.forcePoll }
