package traffic

import "swizzleqos/internal/noc"

// Scheduler is how every shipped generator is driven: instead of being
// polled with Tick every cycle, it predicts the cycle of its next
// emission so the sources layer can sleep until then (fabric.Sources
// keeps a calendar over these). The contract mirrors the polled protocol:
//
//   - NextArrival(from, queued) returns a cycle >= from before which Tick
//     would have returned nil every cycle, given that the flow's queue
//     depth stays `queued` until then. It consumes exactly the RNG
//     draws the per-cycle Tick calls for cycles [from, arrival] would
//     have consumed, in the same order — so a generator driven through
//     NextArrival/Emit produces bit-identical packet streams (and leaves
//     its RNG in the identical state) to one driven through Tick.
//     ok=false means no arrival will ever come without an external
//     event: the trace ran dry, the rate is zero, or a depth-bounded
//     source is full until a queue pop re-arms it.
//   - Emit(now) creates the packet for the arrival NextArrival
//     announced; now must be that arrival cycle. It performs any draws
//     the polled protocol ties to the emission itself (Bursty's
//     burst-exit draw), and returns nil where Tick would have
//     (ClosedLoop, while a request is in flight).
//
// The caller alternates NextArrival/Emit strictly: one Emit per
// successful NextArrival, then a fresh NextArrival(now+1, ...).
// Callers whose queue depth changes between the two (a pop during
// admission) re-arm blocked flows through NextArrival with the new
// depth; see fabric.Sources.
type Scheduler interface {
	Generator
	NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool)
	Emit(now noc.Cycle) *noc.Packet
}

// Compile-time checks: every shipped generator schedules.
var (
	_ Scheduler = (*Bernoulli)(nil)
	_ Scheduler = (*Periodic)(nil)
	_ Scheduler = (*Bursty)(nil)
	_ Scheduler = (*Backlogged)(nil)
	_ Scheduler = (*Trace)(nil)
	_ Scheduler = (*ClosedLoop)(nil)
)

// NextArrival implements Scheduler: scan forward one Bernoulli draw per
// cycle until a success, exactly as the polled protocol would. A zero
// probability never fires.
func (g *Bernoulli) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if g.p == 0 {
		return 0, false
	}
	return from + noc.CycleOf(g.rng.failuresBefore(g.p)), true
}

// Emit implements Scheduler.
func (g *Bernoulli) Emit(now noc.Cycle) *noc.Packet { return newPacket(g.seq, g.spec, now) }

// NextArrival implements Scheduler: the next multiple of the interval
// at or after from. No RNG is involved.
func (g *Periodic) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if from <= g.offset {
		return g.offset, true
	}
	elapsed := noc.SatSub(from, g.offset)
	k := elapsed / g.interval
	if k*g.interval == elapsed {
		return from, true
	}
	return g.offset + (k+1)*g.interval, true
}

// Emit implements Scheduler.
func (g *Periodic) Emit(now noc.Cycle) *noc.Packet { return newPacket(g.seq, g.spec, now) }

// NextArrival implements Scheduler: one burst-entry draw per OFF cycle
// (exactly the draws the polled protocol spends there), then the
// back-to-back emission schedule of the ON state, which draws nothing
// while waiting out the packet-length spacing. A mean OFF time so long
// that the entry probability underflows to zero never fires.
func (g *Bursty) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	t := from
	if !g.on {
		if g.enterProb == 0 {
			return 0, false
		}
		t += noc.CycleOf(g.rng.failuresBefore(g.enterProb))
		g.on = true
		g.nextEmit = t
	}
	if t < g.nextEmit {
		t = g.nextEmit
	}
	return t, true
}

// Emit implements Scheduler: the burst-exit draw is tied to the
// emission, as in Tick.
func (g *Bursty) Emit(now noc.Cycle) *noc.Packet {
	pkt := newPacket(g.seq, g.spec, now)
	g.nextEmit = now + noc.CycleOf(uint64(g.spec.PacketLength))
	if g.rng.draw(g.exitProb) {
		g.on = false
	}
	return pkt
}

// NextArrival implements Scheduler: a backlogged source emits
// immediately while below its depth and blocks (ok=false) at it; the
// sources layer re-arms it when admission pops the queue.
func (g *Backlogged) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if queued >= g.depth {
		return 0, false
	}
	return from, true
}

// Emit implements Scheduler.
func (g *Backlogged) Emit(now noc.Cycle) *noc.Packet { return newPacket(g.seq, g.spec, now) }

// NextArrival implements Scheduler: the next trace entry, no earlier
// than from — entries sharing a cycle emit on consecutive cycles, as
// under per-cycle polling.
func (g *Trace) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if g.pos >= len(g.times) {
		return 0, false
	}
	t := g.times[g.pos]
	if t < from {
		t = from
	}
	return t, true
}

// Emit implements Scheduler.
func (g *Trace) Emit(now noc.Cycle) *noc.Packet {
	g.pos++
	return newPacket(g.seq, g.spec, now)
}
