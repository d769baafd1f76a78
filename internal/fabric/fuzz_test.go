package fabric

import (
	"fmt"
	"testing"
	"testing/quick"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// bufferModel is the reference implementation the fuzzers check Buffer
// against: an explicit FIFO plus exact occupancy/reservation accounting.
// A FlowQueue twin rides along: every packet offered to Admit is pushed
// onto fq, and every Pop pops it, against the plain FIFO fqModel.
type bufferModel struct {
	capFlits int
	queue    []*noc.Packet
	reserved []*noc.Packet // reservations awaiting commit, FIFO
	popped   []*noc.Packet // popped packets eligible for NACK, LIFO
	nextID   uint64
	peak     int // most packets the buffer has held

	fq      FlowQueue
	fqModel []*noc.Packet
	fqPeak  int

	edges ringEdges
}

// ringEdges counts the ring's edge cases a run of operations reached.
type ringEdges struct {
	wrapped     int // a queue ran past the array's last slot
	grewWrapped int // a push grew the array while the head was not at slot 0
	frontAtZero int // PushFront with the head at slot 0, wrapping it to the last
	dropWrapped int // DropWhere removed packets from a wrapped queue
}

// wraps reports whether q's packets run past the end of its array.
func wraps(q *ring) bool { return int(q.head)+q.len() > len(q.slots) }

func (m *bufferModel) occupancy() int {
	total := 0
	for _, p := range m.queue {
		total += p.Length
	}
	return total
}

func (m *bufferModel) reservedFlits() int {
	total := 0
	for _, p := range m.reserved {
		total += p.Length
	}
	return total
}

// pushing notes a push about to land on b.
func (m *bufferModel) pushing(b *Buffer) {
	if b.q.len() == len(b.q.slots) && b.q.head != 0 {
		m.edges.grewWrapped++
	}
}

// applyOp drives one operation against both the buffer and the model,
// returning a non-empty description on divergence. Operations mirror how
// the engines use the buffer: Admit for injection, Reserve/Commit for
// cut-through transfers, Pop for grants, PushFront for NACK/preempt of a
// previously popped packet, DropWhere for a fail-stop flush.
func (m *bufferModel) applyOp(b *Buffer, op byte) string {
	length := 1 + int(op>>3)%7
	switch op % 6 {
	case 0: // Admit a fresh packet.
		m.nextID++
		p := &noc.Packet{ID: m.nextID, Length: length}
		want := m.occupancy()+m.reservedFlits()+length <= m.capFlits
		if want {
			m.pushing(b)
		}
		if got := b.Admit(p); got != want {
			return "Admit accept/reject disagrees with capacity accounting"
		}
		if want {
			m.queue = append(m.queue, p)
		}
		m.fq.push(p)
		m.fqModel = append(m.fqModel, p)
	case 1: // Reserve space for an in-flight packet if it fits.
		fits := m.occupancy()+m.reservedFlits()+length <= m.capFlits
		if b.CanAccept(length) != fits {
			return "CanAccept disagrees with occupancy+reservation"
		}
		if fits {
			m.nextID++
			b.Reserve(length)
			m.reserved = append(m.reserved, &noc.Packet{ID: m.nextID, Length: length})
		}
	case 2: // Commit the oldest reservation.
		if len(m.reserved) == 0 {
			return ""
		}
		p := m.reserved[0]
		m.reserved = m.reserved[1:]
		m.pushing(b)
		b.Commit(p)
		m.queue = append(m.queue, p)
	case 3: // Pop the head.
		var want *noc.Packet
		if len(m.queue) > 0 {
			want = m.queue[0]
		}
		if got := b.Pop(); got != want {
			return "Pop returned the wrong packet (FIFO order broken)"
		}
		if want != nil {
			m.queue = m.queue[1:]
			m.popped = append(m.popped, want)
		}
		want = nil
		if len(m.fqModel) > 0 {
			want = m.fqModel[0]
			m.fqModel = m.fqModel[1:]
		}
		if got := m.fq.Pop(); got != want {
			return "FlowQueue.Pop returned the wrong packet (FIFO order broken)"
		}
	case 4: // NACK: re-insert the most recently popped packet at the head.
		if len(m.popped) == 0 {
			return ""
		}
		p := m.popped[len(m.popped)-1]
		m.popped = m.popped[:len(m.popped)-1]
		if b.q.head == 0 && b.Len() > 0 && b.Len() < len(b.q.slots) {
			m.edges.frontAtZero++
		}
		m.pushing(b)
		b.PushFront(p)
		m.queue = append([]*noc.Packet{p}, m.queue...)
	case 5: // Fail-stop flush: drop the packets whose ID is r mod k.
		k := 1 + uint64(op>>3)%3
		r := uint64(op>>5) % k
		drop := func(p *noc.Packet) bool { return p.ID%k == r }
		wrapped := wraps(&b.q)
		var want, got []*noc.Packet
		kept := m.queue[:0:0]
		for _, p := range m.queue {
			if drop(p) {
				want = append(want, p)
			} else {
				kept = append(kept, p)
			}
		}
		if n := b.DropWhere(drop, func(p *noc.Packet) { got = append(got, p) }); n != len(want) || len(got) != len(want) {
			return fmt.Sprintf("DropWhere removed %d (reported %d), want %d", len(got), n, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return "DropWhere dropped out of queue order"
			}
		}
		if wrapped && len(want) > 0 {
			m.edges.dropWrapped++
		}
		m.queue = kept
	}
	m.peak = max(m.peak, len(m.queue))
	m.fqPeak = max(m.fqPeak, len(m.fqModel))
	if wraps(&b.q) {
		m.edges.wrapped++
	}
	return ""
}

// ringBound is the most slots a ring that has held at most peak packets
// may have: 4, or peak rounded up to a power of two.
func ringBound(peak int) int {
	n := 4
	for n < peak {
		n *= 2
	}
	return n
}

// checkRing compares q's packets, oldest first, against want and checks
// its storage: a power-of-two array no larger than ringBound(peak) that
// keeps no reference outside the queue.
func checkRing(q *ring, want []*noc.Packet, peak int) string {
	if q.len() != len(want) {
		return fmt.Sprintf("ring holds %d packets, want %d", q.len(), len(want))
	}
	for k, p := range want {
		if q.at(k) != p {
			return fmt.Sprintf("ring's packet %d is not the model's", k)
		}
	}
	slots := len(q.slots)
	if slots&(slots-1) != 0 || slots > ringBound(peak) {
		return fmt.Sprintf("ring has %d slots after a peak of %d packets", slots, peak)
	}
	for k := q.len(); k < slots; k++ {
		if q.at(k) != nil {
			return fmt.Sprintf("ring keeps a packet in free slot %d", k)
		}
	}
	return ""
}

// check compares every observable of the buffer and the FlowQueue twin
// against the model.
func (m *bufferModel) check(b *Buffer) string {
	if b.Flits() != m.occupancy() {
		return "Flits diverged from modelled occupancy"
	}
	if b.Reserved() != m.reservedFlits() {
		return "Reserved diverged from modelled reservations"
	}
	if b.Len() != len(m.queue) {
		return "Len diverged from modelled queue length"
	}
	var wantHead *noc.Packet
	if len(m.queue) > 0 {
		wantHead = m.queue[0]
	}
	if b.Head() != wantHead {
		return "Head diverged from modelled queue head"
	}
	if msg := checkRing(&b.q, m.queue, m.peak); msg != "" {
		return "Buffer: " + msg
	}
	wantHead = nil
	if len(m.fqModel) > 0 {
		wantHead = m.fqModel[0]
	}
	if m.fq.Queued() != len(m.fqModel) || m.fq.Peek() != wantHead {
		return "FlowQueue depth or head diverged from the model"
	}
	if msg := checkRing(&m.fq.q, m.fqModel, m.fqPeak); msg != "" {
		return "FlowQueue: " + msg
	}
	return ""
}

// runBufferOps runs ops against a capFlits-flit buffer and the model,
// failing t on the first divergence, then drains both; it returns the
// ring edges the run reached.
func runBufferOps(t *testing.T, capFlits int, ops []byte) ringEdges {
	t.Helper()
	b := NewBuffer(capFlits)
	m := &bufferModel{capFlits: capFlits}
	for i, op := range ops {
		wasOver := b.Flits()+b.Reserved() > capFlits
		if msg := m.applyOp(b, op); msg != "" {
			t.Fatalf("op %d (%d): %s", i, op, msg)
		}
		if msg := m.check(b); msg != "" {
			t.Fatalf("op %d (%d): %s", i, op, msg)
		}
		// The accept path (Admit/Reserve/Commit/Pop/DropWhere) keeps
		// occupancy + reservations within capacity: the total can exceed
		// it only through PushFront — the NACK of a packet whose freed
		// space was since re-filled — or by already having been over
		// before the operation.
		if b.Flits()+b.Reserved() > capFlits && op%6 != 4 && !wasOver {
			t.Fatalf("op %d (%d): occupancy %d + reserved %d exceeds capacity %d without a NACK",
				i, op, b.Flits(), b.Reserved(), capFlits)
		}
	}
	// Drain: the full FIFO comes back out in model order.
	for len(m.queue) > 0 {
		want := m.queue[0]
		m.queue = m.queue[1:]
		if got := b.Pop(); got != want {
			t.Fatal("drain order diverged from model")
		}
	}
	if b.Pop() != nil || b.Len() != 0 {
		t.Fatal("buffer not empty after drain")
	}
	for _, want := range m.fqModel {
		if got := m.fq.Pop(); got != want {
			t.Fatal("FlowQueue drain order diverged from model")
		}
	}
	if m.fq.Pop() != nil || m.fq.Queued() != 0 {
		t.Fatal("FlowQueue not empty after drain")
	}
	return m.edges
}

// Operation bytes of the buffer model (see applyOp): the value mod 6
// picks the operation, the high bits the length or the flush pattern.
const (
	opAdmit   = 0 // of a 1-flit packet
	opPop     = 3
	opNACK    = 4
	opDropOdd = 35 // DropWhere with k = 2, r = 1: the odd IDs
)

// ringEdgeSeeds reach the ring's edges on a 64-flit buffer of 1-flit
// packets, all within the first 4-slot array.
var ringEdgeSeeds = [][]byte{
	// Wraparound, then growth with a wrapped head: admit 1-3, pop 1-2,
	// admit 4-6 (5 and 6 wrap to slots 0 and 1), admit 7 (full with the
	// head at slot 2: grow).
	{opAdmit, opAdmit, opAdmit, opPop, opPop, opAdmit, opAdmit, opAdmit, opAdmit},
	// PushFront at slot 0: admit 1-4, pop them all (the head wraps back
	// to slot 0), admit 5, NACK 4 into slot 3, then drain.
	{opAdmit, opAdmit, opAdmit, opAdmit, opPop, opPop, opPop, opPop, opAdmit, opNACK, opPop, opPop},
	// DropWhere across the wrap: admit 1-4, pop 1-3, admit 5-7 (slots
	// 0-2, head at slot 3), drop the odd IDs 5 and 7.
	{opAdmit, opAdmit, opAdmit, opAdmit, opPop, opPop, opPop, opAdmit, opAdmit, opAdmit, opDropOdd, opPop},
}

// TestBufferRingEdges holds the edge seeds to the edges they are for: a
// seed that stops reaching its edge would leave the fuzz corpus without
// it.
func TestBufferRingEdges(t *testing.T) {
	var total ringEdges
	for _, ops := range ringEdgeSeeds {
		e := runBufferOps(t, 64, ops)
		total.wrapped += e.wrapped
		total.grewWrapped += e.grewWrapped
		total.frontAtZero += e.frontAtZero
		total.dropWrapped += e.dropWrapped
	}
	if total.wrapped == 0 || total.grewWrapped == 0 || total.frontAtZero == 0 || total.dropWrapped == 0 {
		t.Fatalf("edge seeds missed a ring edge: %+v", total)
	}
}

// FuzzBufferInvariants drives random operation strings through Buffer
// against the reference model, checking after every operation that
// occupancy, reservations, length, and FIFO order (including across
// PushFront and DropWhere) all match, that the ring holds exactly the
// model's packets within its size bound, and that the accept path never
// lets occupancy + reservations exceed capacity. A FlowQueue twin is
// held to its own FIFO model alongside.
func FuzzBufferInvariants(f *testing.F) {
	f.Add(uint8(16), []byte{0, 0, 3, 4, 3, 3})
	f.Add(uint8(8), []byte{1, 1, 2, 2, 3, 0, 4, 3, 3, 3})
	f.Add(uint8(3), []byte{0, 8, 16, 1, 9, 2, 3, 11, 4})
	for _, ops := range ringEdgeSeeds {
		f.Add(uint8(63), ops)
	}
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		runBufferOps(t, 1+int(capSel)%64, ops)
	})
}

// TestQuickBufferFIFOAcrossPushFront is the property-test form of the
// headline invariant: any interleaving of pops and NACK re-insertions
// preserves the relative order of the surviving packets.
func TestQuickBufferFIFOAcrossPushFront(t *testing.T) {
	f := func(lengths []uint8, nacks []bool) bool {
		if len(lengths) == 0 {
			return true
		}
		if len(lengths) > 64 {
			lengths = lengths[:64]
		}
		total := 0
		for _, l := range lengths {
			total += 1 + int(l)%8
		}
		b := NewBuffer(total)
		var ids []uint64
		for i, l := range lengths {
			p := &noc.Packet{ID: uint64(i + 1), Length: 1 + int(l)%8}
			if !b.Admit(p) {
				return false
			}
			ids = append(ids, p.ID)
		}
		// Pop each head; with probability given by nacks, NACK it back
		// once and re-pop — delivery order must match admission order
		// regardless.
		var delivered []uint64
		for k := 0; b.Len() > 0; k++ {
			p := b.Pop()
			if k < len(nacks) && nacks[k] {
				b.PushFront(p)
				p = b.Pop()
			}
			delivered = append(delivered, p.ID)
		}
		if len(delivered) != len(ids) {
			return false
		}
		for i := range ids {
			if delivered[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSourcesRotation checks the admission rotation: over any
// pattern of per-cycle admissions with every flow backlogged, a group's
// flows are served within one packet of each other (round-robin
// fairness), and AdmitGroup admits exactly one packet per call.
func TestQuickSourcesRotation(t *testing.T) {
	f := func(flowSel uint8, cycles uint16) bool {
		flows := 2 + int(flowSel)%6
		rounds := 10 + int(cycles)%500
		s := NewSources(1)
		for i := 0; i < flows; i++ {
			s.Add(fakeFlow(i), 0)
		}
		// Backlog every queue by hand.
		for r := 0; r < rounds+flows; r++ {
			for i := 0; i < flows; i++ {
				s.Flow(i).push(&noc.Packet{ID: uint64(r*flows + i + 1), Src: i, Length: 1})
			}
		}
		counts := make([]int, flows)
		for r := 0; r < rounds; r++ {
			p := s.AdmitGroup(0, func(*noc.Packet) bool { return true })
			if p == nil {
				return false
			}
			counts[p.Src]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}

	// Retiring drained flows must leave the service order exactly what it
	// is when they stay listed as tombstones with empty queues.
	if err := quick.Check(func(ops []byte) bool { return rotationMatchesTombstones(ops) == "" },
		&quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// The places the rotation pointer can be when a flow is unlisted, each
	// followed by an Add. push and retire take a position in the list of
	// live flows, which starts as [0 1 2].
	const add, admit = 0, 2
	push := func(k int) byte { return byte(1 | k<<2) }
	retire := func(k int) byte { return byte(3 | k<<2) }
	for _, c := range []struct {
		name string
		ops  []byte
	}{
		// Flow 0 served, pointer at 1; empty flow 2 goes: 1, 3, 0.
		{"pointer before the removed entry", []byte{add, add, add, push(0), push(1), push(1), admit,
			retire(2), add, push(2), push(0), admit, admit, admit, admit}},
		// Flows 0 and 1 served, pointer at 2; empty flow 0 goes: 2, 3, 1.
		{"pointer past the removed entry", []byte{add, add, add, push(0), push(1), push(2), admit, admit,
			retire(0), add, push(0), push(2), admit, admit, admit}},
		// Flow 0 served, pointer at 1; empty flow 1 goes: 2, 3, 0.
		{"pointer at the removed entry", []byte{add, add, add, push(0), push(2), admit,
			retire(1), add, push(2), push(0), admit, admit, admit}},
		// Empty flow 2, the last listed, goes; flow 1 is served next, which
		// leaves the pointer in the dead tail, where the added flow 3 lands:
		// 3 is served before the rotation wraps to 0, 1.
		{"pointer in the dead tail", []byte{add, add, add, push(0), push(1), push(0), push(1), admit,
			retire(2), admit, add, push(2), admit, admit, admit}},
		// Loaded flow 1 is retired, served last in the list and unlisted by
		// that pop; the pointer had wrapped to 0 with it: 0, then 2.
		{"last entry drains on its admission", []byte{add, add, push(0), push(0), push(1),
			retire(1), admit, admit, add, push(1), admit, admit}},
		// The same behind a dead tail (flow 2 already gone): the pointer
		// stays behind the list, so the added flow 3 is served before 0.
		{"last entry drains behind a dead tail", []byte{add, add, add, push(0), push(0), push(1),
			retire(2), retire(1), admit, admit, add, push(1), admit, admit}},
	} {
		if msg := rotationMatchesTombstones(c.ops); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
	}
}

// rotationMatchesTombstones drives one group of hand-loaded flows through
// a set that retires and a model that never does, and returns a
// description of the first admission on which they disagree. Each op
// byte is one step: low two bits 0 add a flow, 1 push a packet onto live
// flow (b>>2)%live, 2 admit one packet, 3 retire live flow (b>>2)%live
// (in the model: just stop loading it).
func rotationMatchesTombstones(ops []byte) string {
	got, model := NewSources(1), NewSources(1)
	var live []int
	all := func(*noc.Packet) bool { return true }
	id := uint64(0)
	for step, b := range ops {
		switch b & 3 {
		case 0:
			live = append(live, got.Add(fakeFlow(got.Len()), 0))
			model.Add(fakeFlow(model.Len()), 0)
		case 1:
			if len(live) == 0 {
				continue
			}
			i := live[int(b>>2)%len(live)]
			id++
			for _, s := range []*Sources{got, model} {
				s.record(i, s.Flow(i), &noc.Packet{ID: id, Src: i, Length: 1})
			}
		case 2:
			pg, pm := got.AdmitGroup(0, all), model.AdmitGroup(0, all)
			if (pg == nil) != (pm == nil) || (pg != nil && pg.ID != pm.ID) {
				return fmt.Sprintf("step %d: retiring set admitted %v, tombstone model %v", step, pg, pm)
			}
		case 3:
			if len(live) == 0 {
				continue
			}
			k := int(b>>2) % len(live)
			got.Retire(live[k])
			live = append(live[:k], live[k+1:]...)
		}
	}
	// Whatever is still queued drains in the same order, and every retired
	// flow is gone from the list by then.
	for model.GroupQueued(0) > 0 {
		pg, pm := got.AdmitGroup(0, all), model.AdmitGroup(0, all)
		if pg == nil || pg.ID != pm.ID {
			return fmt.Sprintf("drain: retiring set admitted %v, tombstone model %v", pg, pm)
		}
	}
	if len(got.groups[0]) != len(live) {
		return fmt.Sprintf("%d flows still listed, %d live", len(got.groups[0]), len(live))
	}
	return ""
}

func fakeFlow(src int) (f traffic.Flow) {
	f.Spec = noc.FlowSpec{Src: src, Dst: 0, Class: noc.BestEffort, PacketLength: 1}
	return f
}
