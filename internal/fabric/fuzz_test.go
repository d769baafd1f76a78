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
type bufferModel struct {
	capFlits int
	queue    []*noc.Packet
	reserved []*noc.Packet // reservations awaiting commit, FIFO
	popped   []*noc.Packet // popped packets eligible for NACK, LIFO
	nextID   uint64
}

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

// applyOp drives one operation against both the buffer and the model,
// returning a non-empty description on divergence. Operations mirror how
// the engines use the buffer: Admit for injection, Reserve/Commit for
// cut-through transfers, Pop for grants, PushFront for NACK/preempt of a
// previously popped packet.
func (m *bufferModel) applyOp(b *Buffer, op byte) string {
	length := 1 + int(op>>3)%7
	switch op % 5 {
	case 0: // Admit a fresh packet.
		m.nextID++
		p := &noc.Packet{ID: m.nextID, Length: length}
		want := m.occupancy()+m.reservedFlits()+length <= m.capFlits
		if got := b.Admit(p); got != want {
			return "Admit accept/reject disagrees with capacity accounting"
		}
		if want {
			m.queue = append(m.queue, p)
		}
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
	case 4: // NACK: re-insert the most recently popped packet at the head.
		if len(m.popped) == 0 {
			return ""
		}
		p := m.popped[len(m.popped)-1]
		m.popped = m.popped[:len(m.popped)-1]
		b.PushFront(p)
		m.queue = append([]*noc.Packet{p}, m.queue...)
	}
	return ""
}

// check compares every observable of the buffer against the model.
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
	return ""
}

// FuzzBufferInvariants drives random operation strings through Buffer
// against the reference model, checking after every operation that
// occupancy, reservations, length, and FIFO order (including across
// PushFront) all match, and that the accept path never lets occupancy +
// reservations exceed capacity.
func FuzzBufferInvariants(f *testing.F) {
	f.Add(uint8(16), []byte{0, 0, 3, 4, 3, 3})
	f.Add(uint8(8), []byte{1, 1, 2, 2, 3, 0, 4, 3, 3, 3})
	f.Add(uint8(3), []byte{0, 8, 16, 1, 9, 2, 3, 11, 4})
	f.Fuzz(func(t *testing.T, capSel uint8, ops []byte) {
		capFlits := 1 + int(capSel)%64
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
			// The accept path (Admit/Reserve/Commit/Pop) keeps occupancy
			// + reservations within capacity: the total can exceed it
			// only through PushFront — the NACK of a packet whose freed
			// space was since re-filled — or by already having been over
			// before the operation.
			if b.Flits()+b.Reserved() > capFlits && op%5 != 4 && !wasOver {
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
