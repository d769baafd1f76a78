package fabric

import (
	"fmt"
	"math"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// This file is the kernel's share of a full-state snapshot
// (internal/ctlplane, DESIGN.md "Recovery"): packets, input buffers and
// source sets append their state to the engine's buffer and restore it
// into freshly built values. Free lists, a queue's spare slots and scratch
// are storage, not state, and are never written; nor are a buffer's drain
// count and the source set's refusal memory, which a restored set starts
// without (a forgotten refusal costs one try). Every restore function
// is a trust boundary: it returns an error, and leaves no panic behind for
// the cycle loop to find, whatever bytes it is given. A value a restore
// function refused is not to be used.

// PacketBounds is what a restored packet is checked against: the port
// count its source and destination index into and the longest packet the
// network admits.
type PacketBounds struct {
	Ports  int
	MaxLen int
}

// AppendPacket appends every field of p.
func AppendPacket(b []byte, p *noc.Packet) []byte {
	b = wire.Uint(b, p.ID)
	b = wire.Int(b, p.Src)
	b = wire.Int(b, p.Dst)
	b = wire.Uint(b, uint64(p.Class))
	b = wire.Int(b, p.Length)
	b = wire.Uint(b, p.Stamp.Uint())
	b = wire.Uint(b, p.CreatedAt.Uint())
	b = wire.Uint(b, p.EnqueuedAt.Uint())
	b = wire.Uint(b, p.GrantedAt.Uint())
	b = wire.Uint(b, p.DeliveredAt.Uint())
	b = wire.Int(b, p.Retries)
	return wire.Uint(b, p.HoldUntil.Uint())
}

// ReadPacket reads what AppendPacket wrote into a new packet: ports
// inside lim.Ports, a defined class, a length in [1, lim.MaxLen]. On a
// violation the reader fails and the packet returned is not to be used.
func ReadPacket(r *wire.Reader, lim PacketBounds) *noc.Packet {
	p := &noc.Packet{
		ID:          r.Uint(),
		Src:         r.Index(lim.Ports),
		Dst:         r.Index(lim.Ports),
		Class:       noc.Class(r.Index(noc.NumClasses)),
		Length:      r.Int(lim.MaxLen),
		Stamp:       noc.VTimeOf(r.Uint()),
		CreatedAt:   noc.CycleOf(r.Uint()),
		EnqueuedAt:  noc.CycleOf(r.Uint()),
		GrantedAt:   noc.CycleOf(r.Uint()),
		DeliveredAt: noc.CycleOf(r.Uint()),
		Retries:     r.Int(math.MaxInt32),
		HoldUntil:   noc.CycleOf(r.Uint()),
	}
	if r.Err() == nil && p.Length < 1 {
		r.Failf("fabric: packet %d has no flits", p.ID)
	}
	return p
}

// AppendState appends the buffer's reservation and its queued packets,
// oldest first.
func (b *Buffer) AppendState(buf []byte) []byte {
	buf = wire.Int(buf, b.reserved)
	buf = wire.Int(buf, b.Len())
	for k := range b.Len() {
		buf = AppendPacket(buf, b.q.at(k))
	}
	return buf
}

// RestoreState reads what AppendState wrote into an empty buffer. placed
// says whether a packet belongs in this buffer (its input, its class, its
// virtual output queue). Occupancy may exceed the capacity by one packet
// and no more: PushFront returns a NACKed packet to a queue admission has
// refilled behind it, and an input has one packet in flight at a time.
func (b *Buffer) RestoreState(r *wire.Reader, lim PacketBounds, placed func(*noc.Packet) bool) error {
	reserved := r.Int(b.capFlits)
	n := r.Count()
	for i := 0; i < n && r.Err() == nil; i++ {
		p := ReadPacket(r, lim)
		if r.Err() != nil {
			break
		}
		if !placed(p) {
			r.Failf("fabric: packet %d (%d->%d %v) is in a buffer it cannot have entered", p.ID, p.Src, p.Dst, p.Class)
			break
		}
		b.Push(p)
	}
	if err := r.Err(); err != nil {
		return err
	}
	if b.flits+reserved > b.capFlits+lim.MaxLen {
		return fmt.Errorf("fabric: %d flits buffered and %d reserved in a %d-flit buffer", b.flits, reserved, b.capFlits)
	}
	b.reserved = reserved
	return nil
}

// What a flow slot holds when the snapshot is taken.
const (
	slotReleased = iota // retired and drained: only the index remains
	slotRetiring        // retired, its queue still draining
	slotLive
)

// How a live flow's generation is armed when the snapshot is taken.
const (
	armNone     = iota // no Generate has run yet; the first one arms it
	armPolled          // ticked every cycle: the set is DisableEventDriven's
	armBlocked         // parked until a queue pop
	armCalendar        // with an arrival filed in the calendar
)

// Clock returns whether the set has generated yet and at which cycle
// last. An engine generates every set it owns on every cycle, so it writes
// one clock for all of them.
func (s *Sources) Clock() (calReady bool, lastNow noc.Cycle) { return s.calReady, s.lastNow }

// RestoreClock installs what Clock returned into a fresh set, before any
// RestoreFlow. A set that has generated fires next at lastNow+1.
func (s *Sources) RestoreClock(calReady bool, lastNow noc.Cycle) {
	s.calReady, s.lastNow = calReady, lastNow
	if calReady {
		s.base = lastNow + 1
	}
}

// GroupOf returns the injection group flow i was added to; a released
// slot keeps it.
func (s *Sources) GroupOf(i int) int { return s.groupOf[i] }

// AppendFlowState appends flow slot i: what it holds, for a live flow how
// its generation is armed, and the source queue. The generator's own
// state is not here: whoever built the generator writes and restores it,
// and hands the restored one to RestoreFlow. Nor are the slot's number
// and group: an engine with several source sets numbers flows across
// them.
func (s *Sources) AppendFlowState(b []byte, i int) []byte {
	fq := s.flows[i]
	switch {
	case fq == nil:
		return wire.Uint(b, slotReleased)
	case s.retiring[i]:
		b = wire.Uint(b, slotRetiring)
	default:
		b = wire.Uint(b, slotLive)
		switch {
		case !s.calReady:
			b = wire.Uint(b, armNone)
		case s.forcePoll:
			b = wire.Uint(b, armPolled)
		case s.blocked[i]:
			b = wire.Uint(b, armBlocked)
		default:
			b = wire.Uint(b, armCalendar)
			b = wire.Uint(b, s.calAt[i].Uint())
		}
	}
	b = wire.Int(b, fq.Queued())
	for k := range fq.Queued() {
		b = AppendPacket(b, fq.q.at(k))
	}
	return b
}

// AppendGroupState appends group g's admission rotation. Its membership
// is not written: Add appends ascending flow indices and unlist keeps
// their order, so a group lists its unreleased flows in index order, which
// is the order RestoreFlow attaches them in.
func (s *Sources) AppendGroupState(b []byte, g int) []byte {
	return wire.Bool(wire.Int(b, s.rr[g]), s.deadTail[g])
}

// RestoreFlow reads what AppendFlowState wrote as the set's next flow
// slot, attached to group. src is the port the group injects at; live
// returns the flow of a live slot, generator restored. Queued packets must
// be the flow's own — generated at src, and one flow's packets share
// destination, class and length — in ascending ID, created no later than
// the set's clock (so none before the set's first Generate), and never
// admitted: no stamp, no time past creation, no retry. An arming must be
// one the set's mode and clock allow, and a set that schedules takes only
// a generator that does. The set's derived tables (schedulers, depths,
// the nonempty mask) follow from what is read.
func (s *Sources) RestoreFlow(r *wire.Reader, group, src int, lim PacketBounds, live func() (traffic.Flow, error)) error {
	slot := r.Uint()
	if r.Err() == nil && slot > slotLive {
		r.Failf("fabric: unknown flow slot kind %d", slot)
	}
	if err := r.Err(); err != nil {
		return err
	}
	i := len(s.flows)
	s.flows = append(s.flows, nil)
	s.groupOf = append(s.groupOf, group)
	s.waits = append(s.waits, refusal{})
	s.sched = append(s.sched, nil)
	s.blocked = append(s.blocked, false)
	s.retiring = append(s.retiring, slot != slotLive)
	s.calAt = append(s.calAt, 0)
	s.calNext = append(s.calNext, 0)
	if slot == slotReleased {
		return nil
	}

	fq := &FlowQueue{}
	arm, at := uint64(armNone), noc.Cycle(0)
	var sched traffic.Scheduler
	if slot == slotLive {
		f, err := live()
		if err != nil {
			return err
		}
		if f.Gen == nil || f.Spec.Src != src {
			return fmt.Errorf("fabric: restored flow %d->%d does not inject at port %d", f.Spec.Src, f.Spec.Dst, src)
		}
		fq.Flow = f
		sched, _ = f.Gen.(traffic.Scheduler)
		if arm = r.Uint(); arm == armCalendar {
			at = noc.CycleOf(r.Uint())
		}
		if r.Err() == nil && (!s.forcePoll && sched == nil ||
			!s.calReady && arm != armNone ||
			s.calReady && s.forcePoll && arm != armPolled ||
			s.calReady && !s.forcePoll && arm != armBlocked && arm != armCalendar ||
			arm == armCalendar && at <= s.lastNow) {
			r.Failf("fabric: flow %d->%d cannot be armed as %d (arrival %d) behind cycle %d",
				f.Spec.Src, f.Spec.Dst, arm, at.Uint(), s.lastNow.Uint())
		}
	}
	n := r.Count()
	if r.Err() == nil && slot == slotRetiring && n == 0 {
		r.Failf("fabric: a retiring flow with an empty queue would have been released")
	}
	if r.Err() == nil && n > 0 && !s.calReady {
		r.Failf("fabric: %d packets queued in a set that has not generated", n)
	}
	for k := 0; k < n && r.Err() == nil; k++ {
		p := ReadPacket(r, lim)
		if r.Err() != nil {
			break
		}
		like := p
		if k > 0 {
			like = fq.q.at(0)
		}
		spec := fq.Flow.Spec
		switch {
		case p.Src != src || p.Dst != like.Dst || p.Class != like.Class || p.Length != like.Length ||
			slot == slotLive && (p.Dst != spec.Dst || p.Class != spec.Class || p.Length != spec.PacketLength):
			r.Failf("fabric: packet %d (%d->%d %v, %d flits) is not of the flow whose queue holds it", p.ID, p.Src, p.Dst, p.Class, p.Length)
		case p.Stamp != 0 || p.EnqueuedAt != 0 || p.GrantedAt != 0 || p.DeliveredAt != 0 || p.Retries != 0 || p.HoldUntil != 0:
			// Admission stamps and enqueues a packet as it leaves the
			// source queue, and none ever returns to one.
			r.Failf("fabric: source-queued packet %d has been admitted (stamp %d, enqueued %d, granted %d, delivered %d, %d retries, held until %d)",
				p.ID, p.Stamp.Uint(), p.EnqueuedAt.Uint(), p.GrantedAt.Uint(), p.DeliveredAt.Uint(), p.Retries, p.HoldUntil.Uint())
		case p.CreatedAt > s.lastNow:
			r.Failf("fabric: source-queued packet %d created at cycle %d, after the set's last cycle %d", p.ID, p.CreatedAt.Uint(), s.lastNow.Uint())
		case k > 0 && p.ID <= fq.q.at(k-1).ID:
			// One sequence numbers every packet in creation order.
			r.Failf("fabric: source-queued packet %d stands behind packet %d", p.ID, fq.q.at(k-1).ID)
		default:
			fq.push(p)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}

	s.flows[i] = fq
	s.groups[group] = append(s.groups[group], i)
	if s.depth[group] += n; n > 0 {
		arb.MaskSet(s.nonempty, group)
	}
	if slot == slotRetiring {
		return nil
	}
	s.live++
	// Add's promise: Generate never grows the far heap.
	s.reserveFar()
	switch arm {
	case armBlocked:
		s.sched[i], s.blocked[i] = sched, true
	case armCalendar:
		s.sched[i] = sched
		s.file(at, int32(i))
	}
	return nil
}

// RestoreGroup reads what AppendGroupState wrote, once the group's flows
// are restored. The rotation may stand behind the last listed flow only
// where unlist left it there.
func (s *Sources) RestoreGroup(r *wire.Reader, g int) error {
	n := len(s.groups[g])
	rr := r.Int(n)
	deadTail := r.Bool()
	if r.Err() == nil && rr == n && n > 0 && !deadTail {
		r.Failf("fabric: group %d rotation stands behind its last flow, which nothing removed", g)
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.rr[g], s.deadTail[g] = rr, deadTail
	return nil
}
