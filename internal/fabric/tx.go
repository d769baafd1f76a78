package fabric

import "swizzleqos/internal/noc"

// Transmission is an output channel's in-flight packet: the packet, the
// input (port index) it is draining from, and the flits still to move.
// An engine holds one per output channel, the most that can be in flight
// there, and points at it while the channel transmits.
type Transmission struct {
	Pkt       *noc.Packet
	Input     int
	Remaining int
}

// Start fills t for a packet granted from input and returns it.
//
//ssvc:hotpath
func (t *Transmission) Start(pkt *noc.Packet, input int) *Transmission {
	t.Pkt, t.Input, t.Remaining = pkt, input, pkt.Length
	return t
}

// TxPool is a free list of Transmission structs. No engine uses it (each
// holds one transmission per output); it remains for the bench kernel
// that times it. The zero value is ready to use.
type TxPool struct {
	free []*Transmission
}

// Preload seeds the pool with n transmissions so even the first takes
// allocate nothing.
func (tp *TxPool) Preload(n int) {
	for i := 0; i < n; i++ {
		tp.free = append(tp.free, new(Transmission))
	}
}

// Get returns a transmission for a granted packet, reusing a retired
// struct when one is available.
//
//ssvc:hotpath
func (tp *TxPool) Get(pkt *noc.Packet, input int) *Transmission {
	var t *Transmission
	if n := len(tp.free); n > 0 {
		t, tp.free = tp.free[n-1], tp.free[:n-1]
	} else {
		t = newTransmission()
	}
	return t.Start(pkt, input)
}

// newTransmission is the pool-miss path, kept out of line so its
// allocation stays attributed here rather than inlined into
// //ssvc:hotpath callers.
//
//go:noinline
func newTransmission() *Transmission { return new(Transmission) }

// Put retires a completed (or aborted) transmission. The packet pointer
// is cleared so the pool never delays packet recycling.
//
//ssvc:hotpath
func (tp *TxPool) Put(t *Transmission) {
	t.Pkt = nil
	tp.free = append(tp.free, t)
}
