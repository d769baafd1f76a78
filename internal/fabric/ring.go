package fabric

import "swizzleqos/internal/noc"

// ring is the packet FIFO behind Buffer and FlowQueue: a power-of-two
// circular array that doubles only when a push finds it full, so a queue
// holds no more slots than max(4, its peak occupancy rounded up to a
// power of two) and a steady-state push or pop never allocates. The
// indices are int32 so the header, and with it Buffer, stays small.
type ring struct {
	slots   []*noc.Packet // empty or a power of two long
	head, n int32         // slot of the oldest packet; packets held
}

// len returns the number of packets held.
func (q *ring) len() int { return int(q.n) }

// at returns the k-th oldest packet, 0 <= k < len.
func (q *ring) at(k int) *noc.Packet {
	return q.slots[(int(q.head)+k)&(len(q.slots)-1)]
}

// peek returns the oldest packet, or nil.
func (q *ring) peek() *noc.Packet {
	if q.n == 0 {
		return nil
	}
	return q.slots[q.head]
}

// push appends p behind the newest packet.
func (q *ring) push(p *noc.Packet) {
	if int(q.n) == len(q.slots) {
		q.grow()
	}
	q.slots[(int(q.head)+int(q.n))&(len(q.slots)-1)] = p
	q.n++
}

// pushFront inserts p ahead of the oldest packet.
func (q *ring) pushFront(p *noc.Packet) {
	if int(q.n) == len(q.slots) {
		q.grow()
	}
	q.head = (q.head - 1) & int32(len(q.slots)-1)
	q.slots[q.head] = p
	q.n++
}

// pop removes and returns the oldest packet, or nil.
func (q *ring) pop() *noc.Packet {
	if q.n == 0 {
		return nil
	}
	p := q.slots[q.head]
	q.slots[q.head] = nil
	q.head = (q.head + 1) & int32(len(q.slots)-1)
	q.n--
	return p
}

// remove drops every packet drop reports true for, oldest first, keeping
// the order of the rest, and returns how many it dropped.
func (q *ring) remove(drop func(*noc.Packet) bool) int {
	n := q.len()
	kept := 0
	for k := 0; k < n; k++ {
		p := q.at(k)
		if drop(p) {
			continue
		}
		q.slots[(int(q.head)+kept)&(len(q.slots)-1)] = p
		kept++
	}
	for k := kept; k < n; k++ {
		q.slots[(int(q.head)+k)&(len(q.slots)-1)] = nil
	}
	q.n = int32(kept)
	return n - kept
}

// grow doubles the array (4 slots at first), unwrapping the packets to
// its front. It stays out of line so the allocation is its own and not
// that of every hot caller of push.
//
//go:noinline
func (q *ring) grow() {
	slots := make([]*noc.Packet, max(4, 2*len(q.slots)))
	for k := range slots[:q.n] {
		slots[k] = q.at(k)
	}
	q.slots, q.head = slots, 0
}
