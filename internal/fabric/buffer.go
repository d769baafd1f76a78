package fabric

import "swizzleqos/internal/noc"

// Buffer is a FIFO of whole packets with flit-granular capacity and
// downstream-reservation accounting. It is the single input-buffer model
// behind all three engines.
//
// Admission is per packet: a packet enters only when the buffer has room
// for all its flits, which models the conservative whole-packet
// allocation a wormhole or virtual cut-through input queue needs to
// avoid deadlocking a grant. Multi-hop engines additionally reserve a
// packet's space at the next hop before the transfer starts (Reserve at
// grant time, Commit on the last flit), so an in-flight packet can never
// be dropped for lack of downstream space; the single-stage crossbar
// simply never reserves.
//
// The packets sit in a ring (see ring) that grows only when it is full,
// so a buffer's storage follows the most it ever held, not how many
// packets have passed through it, and nothing compacts.
type Buffer struct {
	capFlits int
	flits    int
	reserved int
	// drains counts the events that grew the free space: every Pop that
	// removed a packet, every Unreserve and every DropWhere that dropped
	// something. Nothing else grows it — Commit turns a reservation into
	// occupancy at no change, and the capacity is fixed — so a packet
	// CanAccept refused stays refused until drains moves. Sources' refusal
	// memory waits on it (Sources.Refused).
	drains uint64
	q      ring
}

// NewBuffer returns an empty buffer holding capFlits flits.
func NewBuffer(capFlits int) *Buffer {
	return &Buffer{capFlits: capFlits}
}

// CanAccept reports whether a packet of length flits fits alongside the
// current occupancy and outstanding reservations.
func (b *Buffer) CanAccept(length int) bool {
	return b.flits+b.reserved+length <= b.capFlits
}

// Reserve sets aside space for an in-flight packet of length flits. The
// caller must have checked CanAccept.
func (b *Buffer) Reserve(length int) { b.reserved += length }

// Unreserve releases a reservation whose transfer was aborted before its
// last flit arrived — the NACK path of a multi-hop engine: the packet
// stays (or is re-queued) upstream and the downstream space it had
// claimed is returned.
func (b *Buffer) Unreserve(length int) {
	b.reserved -= length
	b.drains++
}

// Commit converts a packet's reservation into occupancy when its last
// flit arrives.
func (b *Buffer) Commit(p *noc.Packet) {
	b.reserved -= p.Length
	b.q.push(p)
	b.flits += p.Length
}

// Push appends a packet; the caller must have checked CanAccept.
//
//ssvc:hotpath
func (b *Buffer) Push(p *noc.Packet) {
	b.q.push(p)
	b.flits += p.Length
}

// Admit pushes a freshly injected packet (no prior reservation) if it
// fits, reporting whether it was accepted.
func (b *Buffer) Admit(p *noc.Packet) bool {
	if !b.CanAccept(p.Length) {
		return false
	}
	b.Push(p)
	return true
}

// Head returns the oldest packet without removing it, or nil.
func (b *Buffer) Head() *noc.Packet { return b.q.peek() }

// Pop removes and returns the oldest packet, or nil.
//
//ssvc:hotpath
func (b *Buffer) Pop() *noc.Packet {
	p := b.q.pop()
	if p == nil {
		return nil
	}
	b.flits -= p.Length
	b.drains++
	return p
}

// PushFront re-inserts a packet at the head of the queue — the NACK path
// of preemptive schemes: the aborted packet retries from the front and
// may transiently exceed the buffer's capacity (the hardware holds the
// retransmission at the source until acknowledged).
func (b *Buffer) PushFront(p *noc.Packet) {
	b.q.pushFront(p)
	b.flits += p.Length
}

// DropWhere removes every queued packet matching pred, oldest first,
// invoking onDrop for each removed packet, and returns how many were
// removed; the survivors keep their order. This is a cold-path operation
// used when a port fail-stops and the packets parked toward it must be
// flushed; the steady-state loop never calls it.
func (b *Buffer) DropWhere(pred func(*noc.Packet) bool, onDrop func(*noc.Packet)) int {
	dropped := b.q.remove(func(p *noc.Packet) bool {
		if !pred(p) {
			return false
		}
		b.flits -= p.Length
		if onDrop != nil {
			onDrop(p)
		}
		return true
	})
	if dropped > 0 {
		b.drains++
	}
	return dropped
}

// Len returns the number of queued packets.
func (b *Buffer) Len() int { return b.q.len() }

// Slots returns how many packets the buffer's storage holds before it
// next grows.
func (b *Buffer) Slots() int { return len(b.q.slots) }

// Flits returns the occupied capacity in flits.
func (b *Buffer) Flits() int { return b.flits }

// Reserved returns the flits currently reserved for in-flight packets.
func (b *Buffer) Reserved() int { return b.reserved }

// Cap returns the buffer capacity in flits.
func (b *Buffer) Cap() int { return b.capFlits }
