package fabric

import (
	"math/bits"
	"testing"
	"unsafe"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

func pkt(id uint64, length int) *noc.Packet {
	return &noc.Packet{ID: id, Length: length}
}

func TestBufferFIFOAndCapacity(t *testing.T) {
	b := NewBuffer(10)
	if !b.CanAccept(10) || b.CanAccept(11) {
		t.Fatal("capacity accounting wrong on empty buffer")
	}
	if !b.Admit(pkt(1, 4)) || !b.Admit(pkt(2, 4)) {
		t.Fatal("fitting packets rejected")
	}
	if b.Admit(pkt(3, 4)) {
		t.Fatal("overfull admit accepted")
	}
	if b.Len() != 2 || b.Flits() != 8 {
		t.Fatalf("len=%d flits=%d, want 2/8", b.Len(), b.Flits())
	}
	if b.Head().ID != 1 || b.Pop().ID != 1 || b.Pop().ID != 2 || b.Pop() != nil {
		t.Fatal("FIFO order violated")
	}
	if b.Flits() != 0 || b.Len() != 0 {
		t.Fatalf("drained buffer reports flits=%d len=%d", b.Flits(), b.Len())
	}
}

func TestBufferReserveCommit(t *testing.T) {
	b := NewBuffer(10)
	if !b.CanAccept(6) {
		t.Fatal("empty buffer rejects 6 flits")
	}
	b.Reserve(6)
	if b.Reserved() != 6 || b.CanAccept(5) {
		t.Fatal("reservation not counted against capacity")
	}
	if !b.Admit(pkt(1, 4)) {
		t.Fatal("4 flits alongside a 6-flit reservation rejected")
	}
	if b.Admit(pkt(2, 1)) {
		t.Fatal("admit beyond occupancy+reservation accepted")
	}
	in := pkt(3, 6)
	b.Commit(in)
	if b.Reserved() != 0 || b.Flits() != 10 {
		t.Fatalf("after commit: reserved=%d flits=%d, want 0/10", b.Reserved(), b.Flits())
	}
	if b.Pop().ID != 1 || b.Pop().ID != 3 {
		t.Fatal("commit broke FIFO order")
	}
}

func TestBufferPushFront(t *testing.T) {
	b := NewBuffer(100)
	for i := 1; i <= 3; i++ {
		b.Push(pkt(uint64(i), 2))
	}
	got := b.Pop()
	if got.ID != 1 {
		t.Fatalf("pop = %d, want 1", got.ID)
	}
	// NACK: the popped packet retries from the front.
	b.PushFront(got)
	if b.Head().ID != 1 || b.Flits() != 6 {
		t.Fatalf("head=%d flits=%d after PushFront, want 1/6", b.Head().ID, b.Flits())
	}
	for want := uint64(1); want <= 3; want++ {
		if got := b.Pop(); got.ID != want {
			t.Fatalf("pop = %d, want %d", got.ID, want)
		}
	}
	// PushFront on an empty, never-popped prefix (head == 0).
	b2 := NewBuffer(100)
	b2.Push(pkt(10, 1))
	b2.PushFront(pkt(9, 1))
	if b2.Pop().ID != 9 || b2.Pop().ID != 10 {
		t.Fatal("PushFront at head==0 broke order")
	}
}

// TestBufferRingStaysAtPeak passes 2,000 packets through a buffer one at
// a time: its ring never holds more than the first array's 4 slots.
func TestBufferRingStaysAtPeak(t *testing.T) {
	b := NewBuffer(1 << 20)
	var next uint64
	for round := 0; round < 2000; round++ {
		next++
		b.Push(pkt(next, 1))
		if got := b.Pop(); got.ID != next {
			t.Fatalf("round %d: pop = %d, want %d", round, got.ID, next)
		}
	}
	if b.Len() != 0 {
		t.Fatal("buffer not empty after balanced push/pop")
	}
	if n := len(b.q.slots); n > ringBound(1) {
		t.Fatalf("ring grew to %d slots holding one packet at a time", n)
	}
}

// TestBufferSize pins Buffer to the 64-byte size class on 64-bit words:
// the crossbar holds radix² + 2·radix of them, and one more word would
// put each in the 80-byte class.
func TestBufferSize(t *testing.T) {
	if bits.UintSize != 64 {
		t.Skipf("the pin is for 64-bit words, not %d-bit", bits.UintSize)
	}
	if n := unsafe.Sizeof(Buffer{}); n != 64 {
		t.Fatalf("Buffer is %d bytes, want 64", n)
	}
}

// TestBufferNACKStorm is the retransmission-path property test: under a
// sustained storm of Pop / PushFront cycles (every in-flight packet
// NACKed a random number of times before finally succeeding, new
// packets admitted throughout), flit accounting stays exact against a
// shadow model and the ring stays within the bound of the most packets
// it held, however often PushFront rewinds its head.
func TestBufferNACKStorm(t *testing.T) {
	rng := traffic.NewRNG(42)
	b := NewBuffer(1 << 20)
	var shadow []*noc.Packet // reference FIFO
	shadowFlits := 0
	peak := 0
	var next uint64
	for round := 0; round < 20000; round++ {
		// Admit up to 2 fresh packets of random length.
		for k := 0; k < rng.Intn(3); k++ {
			next++
			p := pkt(next, 1+rng.Intn(8))
			b.Push(p)
			shadow = append(shadow, p)
			shadowFlits += p.Length
		}
		peak = max(peak, len(shadow))
		if len(shadow) == 0 {
			continue
		}
		// Pop the head and NACK it back 0..3 times before letting it go.
		nacks := rng.Intn(4)
		for k := 0; k < nacks; k++ {
			p := b.Pop()
			if p != shadow[0] {
				t.Fatalf("round %d: pop = %v, want head %v", round, p.ID, shadow[0].ID)
			}
			b.PushFront(p)
			if b.Head() != p {
				t.Fatalf("round %d: head after PushFront is not the NACKed packet", round)
			}
		}
		p := b.Pop()
		if p != shadow[0] {
			t.Fatalf("round %d: final pop = %v, want %v", round, p.ID, shadow[0].ID)
		}
		shadowFlits -= p.Length
		shadow = shadow[1:]
		if b.Flits() != shadowFlits {
			t.Fatalf("round %d: flits = %d, want %d", round, b.Flits(), shadowFlits)
		}
		if b.Len() != len(shadow) {
			t.Fatalf("round %d: len = %d, want %d", round, b.Len(), len(shadow))
		}
	}
	if n := len(b.q.slots); n > ringBound(peak) {
		t.Fatalf("ring grew to %d slots under the NACK storm, peak occupancy %d", n, peak)
	}
}

// TestBufferDropWhere covers the fail-stop flush path: selective removal
// behind a popped head keeps flit accounting and FIFO order of the
// survivors.
func TestBufferDropWhere(t *testing.T) {
	b := NewBuffer(100)
	for i := 1; i <= 6; i++ {
		p := pkt(uint64(i), 2)
		p.Dst = i % 2 // odd IDs -> dst 1, even -> dst 0
		b.Push(p)
	}
	b.Pop() // move the head off slot 0
	var dropped []uint64
	n := b.DropWhere(
		func(p *noc.Packet) bool { return p.Dst == 1 },
		func(p *noc.Packet) { dropped = append(dropped, p.ID) },
	)
	if n != 2 || len(dropped) != 2 || dropped[0] != 3 || dropped[1] != 5 {
		t.Fatalf("DropWhere removed %d %v, want [3 5]", n, dropped)
	}
	if b.Len() != 3 || b.Flits() != 6 {
		t.Fatalf("after drop: len=%d flits=%d, want 3/6", b.Len(), b.Flits())
	}
	for _, want := range []uint64{2, 4, 6} {
		if got := b.Pop(); got.ID != want {
			t.Fatalf("pop = %d, want %d", got.ID, want)
		}
	}
}

// TestFlowQueueRingStaysAtPeak is TestBufferRingStaysAtPeak for a source
// queue.
func TestFlowQueueRingStaysAtPeak(t *testing.T) {
	var fq FlowQueue
	var next uint64
	for round := 0; round < 5000; round++ {
		next++
		fq.push(pkt(next, 1))
		if fq.Queued() != 1 || fq.Peek().ID != next {
			t.Fatalf("round %d: queued=%d", round, fq.Queued())
		}
		if got := fq.Pop(); got.ID != next {
			t.Fatalf("round %d: pop = %d, want %d", round, got.ID, next)
		}
	}
	if n := len(fq.q.slots); n > ringBound(1) {
		t.Fatalf("flow queue grew to %d slots holding one packet at a time", n)
	}
}

func TestTxPoolReuse(t *testing.T) {
	var tp TxPool
	tp.Preload(2)
	p := pkt(1, 8)
	tx := tp.Get(p, 3)
	if tx.Pkt != p || tx.Input != 3 || tx.Remaining != 8 {
		t.Fatalf("Get filled %+v", tx)
	}
	tp.Put(tx)
	if tx.Pkt != nil {
		t.Fatal("Put retained the packet pointer")
	}
	if again := tp.Get(pkt(2, 1), 0); again != tx {
		t.Fatal("pool did not reuse the retired transmission")
	}
}
