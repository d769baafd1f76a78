// Package spec is a reference model of the crossbar of §3, written to be
// read rather than to be fast. It shares no code with the engine it
// checks (internal/switchsim): every cycle it visits every port and asks
// every question again from plain slices. Each rule it follows, every
// tie-break order included, is written down once in DESIGN.md
// "Reference model"; the comments below name the step they implement.
//
// What it leaves out is what the engine adds for speed: work masks,
// standing offers, admission skips and refusal memory, the arrival
// calendar, the arbiter clock's deadlines and lazily built queues. The
// lock-step differential in switchsim's tests holds the engine to this
// model after every cycle, so each of those optimisations must be
// invisible.
//
// It imports only the domain types (noc), the arbiter contract (arb),
// flows and their generators (traffic) and the fault schedule (faults),
// from which it takes the fail-stops as they fire and the corruption
// draws. It is used by tests only.
package spec

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// Config describes the modelled crossbar.
type Config struct {
	Radix int

	// Capacities in flits: the best-effort and guaranteed-latency FIFO of
	// each input, and each guaranteed-bandwidth virtual output queue.
	BEBufferFlits, GLBufferFlits, GBBufferFlits int

	// PacketChaining lets a completing output arbitrate for its next
	// packet under its last flit.
	PacketChaining bool

	// AdmissionGate, when non-nil, may keep a fitting packet at its source.
	AdmissionGate func(now noc.Cycle, p *noc.Packet) bool

	// Faults is the fault schedule, nil for none.
	Faults *faults.Config
}

// Counters is everything the model counts. The names and meanings follow
// the engine's (fabric.Counters and the crossbar's own counters).
type Counters struct {
	Injected, Admitted, Delivered, Dropped uint64
	ArbCycles, IdleCycles, DataCycles      uint64

	// SkippedOutputs counts the output-cycles that are live and not
	// stalled and have neither a packet in flight nor a request when the
	// cycle's requests are derived.
	SkippedOutputs uint64

	Chained, Preempted, WastedFlits uint64

	// Faults counts corruptions, retransmissions, drops after the retry
	// budget and the output-cycles of live stalled outputs.
	Faults faults.Counters

	// Tries counts the source-queue heads admission looked at.
	Tries uint64
}

// queue is a FIFO of whole packets with a capacity in flits.
type queue struct {
	pkts  []*noc.Packet
	flits int
	cap   int
}

func (q *queue) head() *noc.Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	return q.pkts[0]
}

func (q *queue) fits(p *noc.Packet) bool { return q.flits+p.Length <= q.cap }

func (q *queue) push(p *noc.Packet) {
	q.pkts = append(q.pkts, p)
	q.flits += p.Length
}

// pushFront puts a NACKed packet back at the head; it may take the queue
// past its capacity.
func (q *queue) pushFront(p *noc.Packet) {
	q.pkts = append([]*noc.Packet{p}, q.pkts...)
	q.flits += p.Length
}

func (q *queue) pop() *noc.Packet {
	p := q.pkts[0]
	q.pkts = q.pkts[1:]
	q.flits -= p.Length
	return p
}

// dropWhere removes the packets match selects, oldest first, handing each
// to drop; the rest keep their order.
func (q *queue) dropWhere(match func(*noc.Packet) bool, drop func(*noc.Packet)) {
	var kept []*noc.Packet
	for _, p := range q.pkts {
		if match(p) {
			q.flits -= p.Length
			drop(p)
		} else {
			kept = append(kept, p)
		}
	}
	q.pkts = kept
}

// source is one flow and its unbounded source queue.
type source struct {
	flow traffic.Flow
	pkts []*noc.Packet
}

type input struct {
	be, gl queue
	gb     []queue // one virtual output queue per output
	flows  []int   // this input's flows, in AddFlow order
	next   int     // admission rotation: the position in flows tried first
	gbNext int     // the virtual output queue looked at first
	busy   bool    // transmitting a granted packet
	dead   bool

	// The request derived at the start of this cycle.
	bid    arb.Request
	bidDst int
	hasBid bool
}

type output struct {
	arb  arb.Arbiter
	pkt  *noc.Packet // in flight, or nil
	from int         // the input pkt drains from
	left int         // flits of pkt still to move
	dead bool
}

// Switch is the model. Build one with New, add flows with AddFlow, then
// call Step once per cycle.
type Switch struct {
	Counters

	cfg        Config
	in         []*input
	out        []*output
	src        []*source
	inj        *faults.Injector // nil without a schedule
	maxRetries int
	base, cap  noc.Cycle // backoff: base << (attempt-1), at most cap
	deliver    func(*noc.Packet)
	release    func(*noc.Packet)
	now        noc.Cycle
	err        error
}

// New builds the model; newArb builds output o's arbiter.
func New(cfg Config, newArb func(o int) arb.Arbiter) (*Switch, error) {
	if cfg.Radix < 1 {
		return nil, fmt.Errorf("spec: radix %d", cfg.Radix)
	}
	s := &Switch{cfg: cfg}
	for i := 0; i < cfg.Radix; i++ {
		in := &input{
			be: queue{cap: cfg.BEBufferFlits},
			gl: queue{cap: cfg.GLBufferFlits},
			gb: make([]queue, cfg.Radix),
		}
		for o := range in.gb {
			in.gb[o].cap = cfg.GBBufferFlits
		}
		s.in = append(s.in, in)
		s.out = append(s.out, &output{arb: newArb(i)})
	}
	if f := cfg.Faults; f != nil {
		if err := f.Validate(cfg.Radix, cfg.Radix); err != nil {
			return nil, err
		}
		// The injector keeps port masks of its own; the model keeps its
		// own dead flags and reads stall windows from the schedule.
		words := (cfg.Radix + 63) / 64
		s.inj = faults.New(*f, make([]uint64, words), make([]uint64, words), make([]uint64, words))
		s.maxRetries, s.base, s.cap = f.MaxRetries, f.BackoffBase, f.BackoffCap
		if s.maxRetries == 0 {
			s.maxRetries = faults.DefaultMaxRetries
		}
		if s.base == 0 {
			s.base = faults.DefaultBackoffBase
		}
		if s.cap == 0 {
			s.cap = faults.DefaultBackoffCap
		}
	}
	return s, nil
}

// AddFlow attaches a flow; it is polled from the next Step on.
func (s *Switch) AddFlow(f traffic.Flow) error {
	if err := f.Spec.Validate(s.cfg.Radix); err != nil {
		return err
	}
	s.in[f.Spec.Src].flows = append(s.in[f.Spec.Src].flows, len(s.src))
	s.src = append(s.src, &source{flow: f})
	return nil
}

// OnDeliver registers the delivery observer.
func (s *Switch) OnDeliver(fn func(*noc.Packet)) { s.deliver = fn }

// OnRelease registers the hook that gets every packet the model is done
// with, delivered or dropped.
func (s *Switch) OnRelease(fn func(*noc.Packet)) { s.release = fn }

// Err returns the invariant violation that stopped the model, or nil.
func (s *Switch) Err() error { return s.err }

// Step runs one cycle, in the order of DESIGN.md "Reference model".
func (s *Switch) Step() {
	if s.err != nil {
		return
	}
	now := s.now
	s.failStops(now)
	s.generate(now)
	s.admit(now)
	s.deriveBids(now)
	halted := s.halted(now)
	for o, out := range s.out {
		if !halted[o] && out.pkt == nil && len(s.bidsFor(o)) == 0 {
			s.SkippedOutputs++
		}
	}
	for o := range s.out {
		if !halted[o] && s.err == nil {
			s.serve(o, now)
		}
	}
	for _, out := range s.out { // step 8
		out.arb.Tick(now)
	}
	s.now++
}

// failStops is step 1: it applies the fail-stops the schedule fires at
// now. Everything queued at a dead input or toward a dead output is
// dropped, and a transmission from or to a dead port is aborted.
func (s *Switch) failStops(now noc.Cycle) {
	if s.inj == nil {
		return
	}
	all := func(*noc.Packet) bool { return true }
	for _, f := range s.inj.BeginCycle(now) {
		if f.Input {
			in := s.in[f.Port]
			in.dead = true
			in.be.dropWhere(all, s.drop)
			in.gl.dropWhere(all, s.drop)
			for o := range in.gb {
				in.gb[o].dropWhere(all, s.drop)
			}
			for _, out := range s.out {
				if out.pkt != nil && out.from == f.Port {
					s.abort(out)
				}
			}
			continue
		}
		s.out[f.Port].dead = true
		toDead := func(p *noc.Packet) bool { return p.Dst == f.Port }
		for _, in := range s.in {
			in.be.dropWhere(toDead, s.drop)
			in.gl.dropWhere(toDead, s.drop)
			in.gb[f.Port].dropWhere(all, s.drop)
		}
		if out := s.out[f.Port]; out.pkt != nil {
			s.abort(out)
		}
	}
}

// abort ends an output's transmission to or from a dead port: the flits
// moved are wasted and the packet dropped.
func (s *Switch) abort(out *output) {
	s.WastedFlits += uint64(out.pkt.Length - out.left)
	s.in[out.from].busy = false
	s.drop(out.pkt)
	out.pkt = nil
}

func (s *Switch) drop(p *noc.Packet) {
	s.Dropped++
	if s.release != nil {
		s.release(p)
	}
}

// generate is step 2: it polls every flow's generator once, in flow
// order.
func (s *Switch) generate(now noc.Cycle) {
	for _, f := range s.src {
		if p := f.flow.Gen.Tick(now, len(f.pkts)); p != nil {
			f.pkts = append(f.pkts, p)
			s.Injected++
		}
	}
}

// admit is step 3: it moves at most one packet per input out of a source
// queue, trying the input's flows in rotation from the one after the
// last served.
func (s *Switch) admit(now noc.Cycle) {
	for _, in := range s.in {
		n := len(in.flows)
		for k := 0; k < n; k++ {
			pos := (in.next + k) % n
			f := s.src[in.flows[pos]]
			if len(f.pkts) == 0 {
				continue
			}
			s.Tries++
			if s.accept(f.pkts[0], now) {
				f.pkts = f.pkts[1:]
				in.next = (pos + 1) % n
				break
			}
		}
	}
}

// accept decides one source-queue head: a packet from or to a dead port
// is discarded (and counts as served), one that does not fit its buffer
// or that the gate holds stays, and any other enters its buffer.
func (s *Switch) accept(p *noc.Packet, now noc.Cycle) bool {
	if s.in[p.Src].dead || s.out[p.Dst].dead {
		s.drop(p)
		return true
	}
	q := s.in[p.Src].queueFor(p.Class, p.Dst)
	if !q.fits(p) {
		return false
	}
	if s.cfg.AdmissionGate != nil && !s.cfg.AdmissionGate(now, p) {
		return false
	}
	p.EnqueuedAt = now
	q.push(p)
	s.Admitted++
	if obs, ok := s.out[p.Dst].arb.(arb.ArrivalObserver); ok {
		obs.PacketArrived(now, p)
	}
	return true
}

// queueFor returns the queue a packet of the class toward dst sits in.
func (in *input) queueFor(class noc.Class, dst int) *queue {
	switch class {
	case noc.GuaranteedLatency:
		return &in.gl
	case noc.GuaranteedBandwidth:
		return &in.gb[dst]
	}
	return &in.be
}

// request is input i's bid at cycle now: the guaranteed-latency head,
// else the head of the first non-empty virtual output queue from gbNext
// on, else the best-effort head. A busy input bids nothing, and a head
// still in its retransmission backoff is passed over.
func (s *Switch) request(i int, now noc.Cycle) (dst int, r arb.Request, ok bool) {
	in := s.in[i]
	if in.busy {
		return 0, arb.Request{}, false
	}
	ready := func(p *noc.Packet) bool { return p != nil && p.HoldUntil <= now }
	if p := in.gl.head(); ready(p) {
		return p.Dst, arb.Request{Input: i, Class: noc.GuaranteedLatency, Packet: p}, true
	}
	for k := range in.gb {
		o := (in.gbNext + k) % len(in.gb)
		if p := in.gb[o].head(); ready(p) {
			return o, arb.Request{Input: i, Class: noc.GuaranteedBandwidth, Packet: p}, true
		}
	}
	if p := in.be.head(); ready(p) {
		return p.Dst, arb.Request{Input: i, Class: noc.BestEffort, Packet: p}, true
	}
	return 0, arb.Request{}, false
}

// deriveBids is step 4: it asks every input for its request once, before
// any output is served: an input freed later in the cycle bids again
// only next cycle (or to a chaining output).
func (s *Switch) deriveBids(now noc.Cycle) {
	for i, in := range s.in {
		in.bidDst, in.bid, in.hasBid = s.request(i, now)
	}
}

// bidsFor returns the bids standing at output o, in ascending input
// order; a bid leaves once its input is granted anywhere.
func (s *Switch) bidsFor(o int) []arb.Request {
	var reqs []arb.Request
	for _, in := range s.in {
		if in.hasBid && !in.busy && in.bidDst == o {
			reqs = append(reqs, in.bid)
		}
	}
	return reqs
}

// halted reports, per output, whether it moves and grants nothing at now:
// dead, or inside a stall window. It counts the live stalled ones.
func (s *Switch) halted(now noc.Cycle) []bool {
	h := make([]bool, len(s.out))
	if s.inj == nil {
		return h
	}
	for o, out := range s.out {
		if out.dead {
			h[o] = true
			continue
		}
		for _, w := range s.cfg.Faults.Stalls {
			if w.Port == o && w.From <= now && now < w.Until {
				h[o] = true
			}
		}
		if h[o] {
			s.Faults.StallCycles++
		}
	}
	return h
}

// serve is step 5, output o's cycle: with a packet in flight it lets a
// preempting arbiter abort it for a bidder, else moves one flit; with
// none it arbitrates among the bids, or idles.
func (s *Switch) serve(o int, now noc.Cycle) {
	out := s.out[o]
	if out.pkt != nil {
		if pre, ok := out.arb.(arb.Preemptor); ok && s.preempt(o, pre, now) {
			return
		}
		s.moveFlit(o, now)
		return
	}
	reqs := s.bidsFor(o)
	if len(reqs) == 0 {
		s.IdleCycles++
		return
	}
	s.ArbCycles++
	if w := out.arb.Arbitrate(now, reqs); w >= 0 {
		s.grant(o, reqs[w], now)
	}
}

// preempt asks the arbiter whether a bid displaces the packet in flight.
// The victim goes back to the head of its queue and the challenger is
// granted in the same cycle.
func (s *Switch) preempt(o int, pre arb.Preemptor, now noc.Cycle) bool {
	reqs := s.bidsFor(o)
	if len(reqs) == 0 {
		return false
	}
	out := s.out[o]
	victim := out.pkt
	w := pre.ShouldPreempt(now, arb.Request{Input: out.from, Class: victim.Class, Packet: victim}, reqs)
	if w < 0 {
		return false
	}
	s.Preempted++
	s.WastedFlits += uint64(victim.Length - out.left)
	in := s.in[out.from]
	in.busy = false
	in.queueFor(victim.Class, o).pushFront(victim)
	out.pkt = nil
	s.grant(o, reqs[w], now)
	return true
}

// moveFlit moves one flit. On the last one, step 6, the receiver's CRC
// check runs: a corrupted packet goes back to the head of its queue under
// backoff, or is dropped once its retry budget is spent, and the
// turnaround forgoes chaining; a clean one is delivered.
func (s *Switch) moveFlit(o int, now noc.Cycle) {
	out := s.out[o]
	s.DataCycles++
	if out.left--; out.left > 0 {
		return
	}
	p, in := out.pkt, s.in[out.from]
	in.busy = false
	out.pkt = nil
	if s.inj != nil && s.inj.CorruptArrival(p) {
		s.Faults.Corruptions++
		s.WastedFlits += uint64(p.Length)
		if p.Retries++; p.Retries > s.maxRetries {
			s.Faults.Drops++
			s.drop(p)
			return
		}
		delay := noc.SatShl(s.base, uint(p.Retries-1))
		if delay > s.cap {
			delay = s.cap
		}
		p.HoldUntil = now + delay
		s.Faults.Retransmissions++
		in.queueFor(p.Class, o).pushFront(p)
		return
	}
	p.DeliveredAt = now
	s.Delivered++
	if s.deliver != nil {
		s.deliver(p)
	}
	if s.release != nil {
		s.release(p)
	}
	if s.cfg.PacketChaining {
		s.chain(o, now)
	}
}

// chain arbitrates for output o's next packet under the last flit of the
// one it just delivered. It asks every input afresh, so an input freed
// earlier in this cycle, or by this very delivery, competes.
func (s *Switch) chain(o int, now noc.Cycle) {
	var reqs []arb.Request
	for i := range s.in {
		if dst, r, ok := s.request(i, now); ok && dst == o {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return
	}
	if w := s.out[o].arb.Arbitrate(now, reqs); w >= 0 {
		s.Chained++
		s.grant(o, reqs[w], now)
	}
}

// grant is step 7: it takes the granted head out of its queue and starts
// its transmission, whose flits move from the next cycle on. A
// guaranteed-bandwidth grant moves the input's round robin past output o.
func (s *Switch) grant(o int, r arb.Request, now noc.Cycle) {
	in := s.in[r.Input]
	q := in.queueFor(r.Class, o)
	if q.head() != r.Packet {
		s.err = fmt.Errorf("spec: cycle %d: output %d granted packet %d, not the head of input %d's queue", now, o, r.Packet.ID, r.Input)
		return
	}
	p := q.pop()
	p.GrantedAt = now
	in.busy = true
	if r.Class == noc.GuaranteedBandwidth {
		in.gbNext = (o + 1) % s.cfg.Radix
	}
	out := s.out[o]
	out.pkt, out.from, out.left = p, r.Input, p.Length
	out.arb.Granted(now, r)
}
