package switchsim

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// inputPort holds one input's buffering and channel state; id is also its
// bit in the switch's work masks.
type inputPort struct {
	id    int
	be    *fabric.Buffer
	gl    *fabric.Buffer
	gb    []*fabric.Buffer // one virtual output queue per output, nil until first use
	busy  bool             // transmitting a granted packet
	gbRR  int              // round-robin pointer over GB queues
	gbOcc []uint64         // mask of nonempty GB virtual output queues
	gbCap int              // flits a GB virtual output queue holds
}

// currentRequest is the crossbar's one question to its standing offers
// (fabric.Offers): input i's offer for cycle now, its output and request.
// It picks the guaranteed-latency head first, then the next non-empty
// guaranteed-bandwidth queue in round-robin order, then the best-effort
// head. A busy input offers nothing. A head sitting out a retransmission
// backoff (HoldUntil > now, see internal/faults) blocks its own queue but
// not the input's other queues, and marks the input (ready), so its offer
// is re-derived every cycle until the deadline; HoldUntil is always zero
// in fault-free runs.
//
//ssvc:hotpath
func (s *Switch) currentRequest(i int, now noc.Cycle) (dst int, req arb.Request, ok bool) {
	in := s.inputs[i]
	if in.busy {
		return 0, arb.Request{}, false
	}
	if p := in.gl.Head(); p != nil && s.ready(i, p, now) {
		return p.Dst, arb.Request{Input: i, Class: noc.GuaranteedLatency, Packet: p}, true
	}
	// The occupancy mask turns the round-robin scan over all radix
	// virtual output queues into a rotated walk of the nonempty ones
	// (usually a single MaskNextFrom). The head re-check keeps the
	// HoldUntil (retransmission backoff) semantics of the full scan.
	if first := arb.MaskNextFrom(in.gbOcc, in.gbRR); first >= 0 {
		n := len(in.gb)
		for o := first; ; {
			if p := in.gb[o].Head(); p != nil && s.ready(i, p, now) {
				return o, arb.Request{Input: i, Class: noc.GuaranteedBandwidth, Packet: p}, true
			}
			next := o + 1
			if next == n {
				next = 0
			}
			if o = arb.MaskNextFrom(in.gbOcc, next); o == first {
				break
			}
		}
	}
	if p := in.be.Head(); p != nil && s.ready(i, p, now) {
		return p.Dst, arb.Request{Input: i, Class: noc.BestEffort, Packet: p}, true
	}
	return 0, arb.Request{}, false
}

// ready reports whether head p of input i is out of its backoff at now;
// one still in it marks i for the next refresh.
func (s *Switch) ready(i int, p *noc.Packet, now noc.Cycle) bool {
	if p.HoldUntil <= now {
		return true
	}
	s.offers.Mark(i)
	return false
}

// bufferFor returns the buffer a packet of the given class/destination
// occupies at this input, building a GB virtual output queue the first
// time a flow or a packet is bound for it.
func (in *inputPort) bufferFor(class noc.Class, dst int) *fabric.Buffer {
	switch class {
	case noc.GuaranteedLatency:
		return in.gl
	case noc.GuaranteedBandwidth:
		if q := in.gb[dst]; q != nil {
			return q
		}
		return in.buildVOQ(dst)
	default:
		return in.be
	}
}

// buildVOQ builds the GB virtual output queue toward dst. Most
// (input, output) pairs never carry a GB flow, so the queues are built
// on first use; once built, a queue is never replaced (the source set's
// refusal memory holds on to it). It stays out of line so its allocation
// is not charged to the hot callers of bufferFor.
//
//go:noinline
func (in *inputPort) buildVOQ(dst int) *fabric.Buffer {
	in.gb[dst] = fabric.NewBuffer(in.gbCap)
	return in.gb[dst]
}

// outputPort is one output channel: its arbiter and channel state. The
// obs and pre fields cache the arbiter's optional-interface assertions at
// construction time so the per-cycle loop never pays for a dynamic type
// assertion (admit consults obs once per admitted packet; see New).
type outputPort struct {
	id  int
	arb arb.Arbiter
	obs arb.ArrivalObserver // non-nil iff arb observes arrivals
	pre arb.Preemptor       // non-nil iff arb can preempt
	tx  *fabric.Transmission
}

// Switch is the cycle-accurate crossbar simulator. Create one with New,
// attach flows with AddFlow and a delivery observer with OnDeliver, then
// drive it with Step or Run. It is not safe for concurrent use, and runs
// every cycle on the caller's goroutine (see DESIGN.md "No intra-run
// parallelism").
//
// The embedded fabric.Counters exposes the common utilization counters
// (Injected, Admitted, Delivered, ArbCycles, IdleCycles, DataCycles);
// the embedded fabric.Hooks provides OnDeliver/OnRelease. Switch
// implements fabric.Engine.
type Switch struct {
	fabric.Counters
	fabric.Hooks

	cfg     Config
	inputs  []*inputPort
	outputs []*outputPort

	// sources holds every flow in AddFlow order, one injection group per
	// input, and the inputs whose admission scan is provably barren;
	// txPool recycles the transmissions, one in flight per output at most.
	sources *fabric.Sources
	txPool  fabric.TxPool

	// offers holds every input's standing offer (see serveOutputs) and
	// clocks ticks the output arbiters on their deadlines.
	offers *fabric.Offers
	clocks fabric.Clocks

	// Event-driven work masks (see DESIGN.md "Event-driven idle
	// skipping"): the cycle loop visits only ports these masks prove have
	// work. They are maintained at every state transition (push, pop,
	// grant, completion) and rebuilt wholesale after the cold fail-stop
	// path.
	pkts   []int    // per-input buffered packet count (all classes)
	inQ    []uint64 // inputs with at least one buffered packet
	inBusy []uint64 // inputs currently transmitting
	outTx  []uint64 // outputs with an in-flight transmission
	all    []uint64 // every port
	visit  []uint64 // scratch: this cycle's inputs to refresh, then its outputs to serve

	deadIn, deadOut, stalled []uint64 // kept by the injector (faults.New); zero without one

	arbReqs []arb.Request // scratch: requests handed to one arbitration

	now noc.Cycle
	err error // terminal invariant violation; freezes the engine

	faults     *faults.Injector
	onFailStop func(now noc.Cycle, f faults.FailStop)

	// Crossbar-specific counters, alongside the embedded common block.
	Chained     uint64 // packets granted by chaining (no arbitration cycle)
	Preempted   uint64 // in-flight packets aborted by a Preemptor
	WastedFlits uint64 // flits discarded by preemptions

	afterRefresh func(now noc.Cycle) // test hook: the offers are current for this cycle
}

// Switch is driven through the shared engine interface by the
// experiments layer.
var _ fabric.Engine = (*Switch)(nil)

// New builds a switch; newArb constructs the arbiter for each output port.
func New(cfg Config, newArb func(output int) arb.Arbiter) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if newArb == nil {
		return nil, fmt.Errorf("switchsim: nil arbiter factory")
	}
	words := arb.MaskWords(cfg.Radix)
	s := &Switch{
		cfg:     cfg,
		inputs:  make([]*inputPort, cfg.Radix),
		outputs: make([]*outputPort, cfg.Radix),
		sources: fabric.NewSources(cfg.Radix),
		pkts:    make([]int, cfg.Radix),
		inQ:     make([]uint64, words),
		inBusy:  make([]uint64, words),
		outTx:   make([]uint64, words),
		all:     make([]uint64, words),
		visit:   make([]uint64, words),
		arbReqs: make([]arb.Request, 0, cfg.Radix),
	}
	s.deadIn, s.deadOut, s.stalled = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	s.offers = fabric.NewOffers([]int{cfg.Radix}, s.currentRequest)
	// Pre-seed the transmission free list (one in-flight packet per output
	// is the maximum) so the steady-state loop never allocates.
	s.txPool.Preload(cfg.Radix)
	for i := range s.inputs {
		in := &inputPort{
			id:    i,
			be:    fabric.NewBuffer(cfg.BEBufferFlits),
			gl:    fabric.NewBuffer(cfg.GLBufferFlits),
			gb:    make([]*fabric.Buffer, cfg.Radix),
			gbOcc: make([]uint64, words),
			gbCap: cfg.GBBufferFlits,
		}
		s.inputs[i] = in
		arb.MaskSet(s.all, i)
	}
	for o := range s.outputs {
		a := newArb(o)
		if a == nil {
			return nil, fmt.Errorf("switchsim: arbiter factory returned nil for output %d", o)
		}
		op := &outputPort{id: o, arb: a}
		op.obs, _ = a.(arb.ArrivalObserver)
		op.pre, _ = a.(arb.Preemptor)
		s.outputs[o] = op
		s.clocks.Add(a)
	}
	return s, nil
}

// Config returns the switch configuration.
func (s *Switch) Config() Config { return s.cfg }

// Now returns the current cycle.
func (s *Switch) Now() noc.Cycle { return s.now }

// Arbiter returns output o's arbiter, for inspection in tests.
func (s *Switch) Arbiter(o int) arb.Arbiter { return s.outputs[o].arb }

// Err returns the terminal error that froze the switch, or nil. After a
// non-nil Err, Step is a no-op and Run returns immediately; counters and
// statistics reflect only the cycles before the failure.
func (s *Switch) Err() error { return s.err }

// fail records the first invariant violation and freezes the engine.
func (s *Switch) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// SetFaults installs a fault-injection schedule. It must be called
// before the first Step; the cycle stays the same masked walk.
func (s *Switch) SetFaults(cfg faults.Config) error {
	if s.now != 0 {
		return fmt.Errorf("switchsim: SetFaults after cycle 0 (now=%d)", s.now)
	}
	if err := cfg.Validate(s.cfg.Radix, s.cfg.Radix); err != nil {
		return err
	}
	s.faults = faults.New(cfg, s.deadIn, s.deadOut, s.stalled)
	return nil
}

// OnFailStop registers a callback invoked after the switch has applied a
// fail-stop fault (buffers flushed, in-flight transfer aborted). The
// graceful-degradation policy lives in this hook: the experiments layer
// uses it to re-derive SSVC Vticks so surviving flows absorb the failed
// flows' reservations (core.SSVC.SetVticks).
func (s *Switch) OnFailStop(fn func(now noc.Cycle, f faults.FailStop)) { s.onFailStop = fn }

// FaultTotals returns the injector's fault counters (zero if no schedule
// is installed).
func (s *Switch) FaultTotals() faults.Counters { return s.faults.Totals() }

// AddFlow attaches a flow and its generator to the switch.
func (s *Switch) AddFlow(f traffic.Flow) error {
	if err := f.Spec.Validate(s.cfg.Radix); err != nil {
		return err
	}
	if _, ok := f.Gen.(traffic.Scheduler); !ok {
		return fmt.Errorf("switchsim: flow %d->%d has no scheduling generator", f.Spec.Src, f.Spec.Dst)
	}
	if buf := s.inputs[f.Spec.Src].bufferFor(f.Spec.Class, f.Spec.Dst); f.Spec.PacketLength > buf.Cap() {
		return fmt.Errorf("switchsim: flow %d->%d: %d-flit %v packets can never enter a %d-flit buffer",
			f.Spec.Src, f.Spec.Dst, f.Spec.PacketLength, f.Spec.Class, buf.Cap())
	}
	s.sources.Add(f, f.Spec.Src)
	return nil
}

// Flows returns the number of flows ever attached; the next AddFlow
// takes this index.
func (s *Switch) Flows() int { return s.sources.Len() }

// RetireFlow reclaims flow index f (AddFlow order) and stops its
// generator: it is never asked again, and once its source queue has
// drained it leaves its input's admission rotation and its queue is
// released (fabric.Sources.Retire). Call it between cycles. Delivery
// order is unaffected; what a retired flow still holds is a slot in the
// per-flow tables, a few words per flow ever added.
func (s *Switch) RetireFlow(f int) { s.sources.Retire(f) }

// SourceQueueLen returns flow index f's current source-queue depth in
// packets, for tests. Flow indices follow AddFlow order.
func (s *Switch) SourceQueueLen(f int) int {
	if fq := s.sources.Flow(f); fq != nil {
		return fq.Queued()
	}
	return 0 // retired and drained
}

// BufferOccupancy returns the flit occupancy of the class buffer at input
// i (for GB, the queue toward output dst). It builds no queue: one not yet
// built holds nothing.
func (s *Switch) BufferOccupancy(i int, class noc.Class, dst int) int {
	in := s.inputs[i]
	if class == noc.GuaranteedBandwidth && in.gb[dst] == nil {
		return 0
	}
	return in.bufferFor(class, dst).Flits()
}

// Step advances the simulation one cycle: fault events, generation,
// admission, output channel processing (data or arbitration), then
// arbiter clock ticks. After a terminal error, Step is a no-op.
//
//ssvc:hotpath
func (s *Switch) Step() {
	if s.err != nil {
		return
	}
	now := s.now
	if s.faults != nil {
		for _, f := range s.faults.BeginCycle(now) {
			s.applyFailStop(now, f)
		}
	}
	s.Injected += s.sources.Generate(now)
	s.admit(now)
	s.serveOutputs(now)
	s.clocks.Tick(now)
	s.now++
}

// Run advances the simulation by n cycles, stopping early if the engine
// fails sick (see Err).
func (s *Switch) Run(n noc.Cycle) {
	for i := noc.Cycle(0); i < n; i++ {
		if s.err != nil {
			return
		}
		s.Step()
	}
}

// admit moves at most one packet per input from a source queue into the
// corresponding class buffer, rotating across the input's flows for
// fairness (fabric.Sources owns the rotation). Arrival observers
// (original Virtual Clock, WFQ) stamp the packet here.
//
//ssvc:hotpath
func (s *Switch) admit(now noc.Cycle) {
	gated := false
	try := func(p *noc.Packet) bool {
		// Packets from a fail-stopped input or toward a fail-stopped
		// output are doomed: accept them out of the source queue and
		// discard immediately, so no packet bound for a dead port ever
		// occupies buffer space or pins an input's round-robin offer.
		if arb.MaskHas(s.deadIn, p.Src) || arb.MaskHas(s.deadOut, p.Dst) {
			s.dropPkt(p)
			return true
		}
		buf := s.inputs[p.Src].bufferFor(p.Class, p.Dst)
		if !buf.CanAccept(p.Length) {
			// Nothing but a drain of buf can change this verdict (a
			// fail-stop forgets it), so Sources skips the flow until one
			// (fabric.Sources.Refused).
			s.sources.Refused(buf)
			return false
		}
		if s.cfg.AdmissionGate != nil && !s.cfg.AdmissionGate(now, p) {
			gated = true
			return false
		}
		p.EnqueuedAt = now
		buf.Push(p)
		s.notePush(s.inputs[p.Src], p.Class, p.Dst)
		s.Admitted++
		if obs := s.outputs[p.Dst].obs; obs != nil {
			obs.PacketArrived(now, p)
		}
		return true
	}
	// An input whose last scan admitted nothing is skipped until something
	// that could change the outcome happens: a buffer pop frees space
	// (grant clears the bit), a source queue turns nonempty (Sources
	// clears it) or a fail-stop (recomputeMasks). Inside a scan, a flow
	// whose head a full buffer refused is skipped until that buffer drains
	// (the refusal memory above). A gate's verdict can change with time,
	// so a scan it refused in is not skipped: it sees every attempt.
	skip := s.sources.SkipMask()
	s.SkippedAdmits += uint64(arb.MaskCount(skip))
	for w, m := range skip {
		for m = s.all[w] &^ m; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			gated = false
			if s.sources.AdmitGroup(i, try) == nil && !gated {
				s.sources.Skip(i)
			}
		}
	}
}

// notePush updates the work masks for a packet entering an input buffer.
// A new head can change the input's offer, so it is marked for refresh.
//
//ssvc:hotpath
func (s *Switch) notePush(in *inputPort, class noc.Class, dst int) {
	s.pkts[in.id]++
	arb.MaskSet(s.inQ, in.id)
	s.offers.Mark(in.id)
	if class == noc.GuaranteedBandwidth {
		arb.MaskSet(in.gbOcc, dst)
	}
}

// notePop updates the work masks for a packet leaving an input buffer.
//
//ssvc:hotpath
func (s *Switch) notePop(in *inputPort, class noc.Class, dst int, buf *fabric.Buffer) {
	s.pkts[in.id]--
	if s.pkts[in.id] == 0 {
		arb.MaskClear(s.inQ, in.id)
	}
	if class == noc.GuaranteedBandwidth && buf.Len() == 0 {
		arb.MaskClear(in.gbOcc, dst)
	}
}

// freeInput ends an input's transmission; its next offer is derived at
// the next refresh.
//
//ssvc:hotpath
func (s *Switch) freeInput(in *inputPort) {
	in.busy = false
	arb.MaskClear(s.inBusy, in.id)
	s.offers.Mark(in.id)
}

// serveOutputs advances every output channel: an output either moves one
// flit of its in-flight packet or spends the cycle arbitrating, never
// both — which is exactly the paper's one-cycle arbitration overhead
// (L-flit packets achieve at most L/(L+1) flits/cycle without chaining).
//
// It begins by refreshing the standing offers (fabric.Offers) of the
// marked inputs that can offer, the buffered idle ones: a busy input has
// no offer and an empty one nothing to offer, and the completion, or the
// next push, marks it again, as does a head sitting out a retransmission
// backoff (currentRequest), until its deadline. Marks made while the
// outputs are served wait for the next cycle's refresh: an input freed by
// a completion at one output cannot be granted at another in the same
// cycle (its channel is still draining the last flit).
//
// Then it visits only the outputs with an in-flight packet or at least
// one offer (ascending), less the halted ones: a dead or stalled output
// moves no flit and grants nothing, and its cycle counts as neither idle
// nor skipped (the injector counts a live stalled one's StallCycle).
// Everything else skipped is provably idle and accounted in bulk. The
// visit set is fixed before the first grant, so which outputs count as
// visited never depends on the offers this cycle's grants withdraw.
//
//ssvc:hotpath
func (s *Switch) serveOutputs(now noc.Cycle) {
	dirty := s.offers.Dirty()
	for w := range s.visit {
		s.visit[w] = dirty[w] & s.inQ[w] &^ s.inBusy[w]
	}
	s.offers.Refresh(s.visit, now)
	if s.afterRefresh != nil {
		s.afterRefresh(now)
	}
	offered := s.offers.Offered()
	visited := 0
	for w := range s.visit {
		halted := s.deadOut[w] | s.stalled[w]
		s.visit[w] = (offered[w] | s.outTx[w]) &^ halted
		visited += bits.OnesCount64(s.visit[w] | halted)
	}
	for w, m := range s.visit {
		for ; m != 0; m &= m - 1 {
			if s.err != nil {
				return
			}
			s.serveOutput(s.outputs[w<<6+bits.TrailingZeros64(m)], now)
		}
	}
	if s.err == nil {
		skipped := uint64(s.cfg.Radix - visited)
		s.IdleCycles += skipped
		s.SkippedOutputs += skipped
	}
}

// serveOutput advances one output channel: move a flit or spend the cycle
// arbitrating, never both.
//
//ssvc:hotpath
func (s *Switch) serveOutput(out *outputPort, now noc.Cycle) {
	if out.tx != nil {
		if out.pre != nil && s.tryPreempt(out, now) {
			return
		}
		s.transfer(out, now)
		return
	}
	reqs := s.offers.Requests(out.id, s.arbReqs[:0])
	if len(reqs) == 0 {
		s.IdleCycles++
		return
	}
	s.ArbCycles++
	w := out.arb.Arbitrate(now, reqs)
	if w < 0 {
		return
	}
	s.grant(out, now, reqs[w], false)
}

// tryPreempt gives a Preemptor arbiter the chance to abort the in-flight
// packet; on preemption the challenger is granted immediately (the
// preemption cycle doubles as its arbitration cycle) and the victim is
// NACKed to the head of its queue for full retransmission.
//
//ssvc:hotpath
func (s *Switch) tryPreempt(out *outputPort, now noc.Cycle) bool {
	pre := out.pre
	reqs := s.offers.Requests(out.id, s.arbReqs[:0])
	if len(reqs) == 0 {
		return false
	}
	tx := out.tx
	inflight := arb.Request{Input: tx.Input, Class: tx.Pkt.Class, Packet: tx.Pkt}
	w := pre.ShouldPreempt(now, inflight, reqs)
	if w < 0 {
		return false
	}
	s.Preempted++
	s.WastedFlits += uint64(tx.Pkt.Length - tx.Remaining)
	victim := s.inputs[tx.Input]
	s.freeInput(victim)
	victim.bufferFor(tx.Pkt.Class, out.id).PushFront(tx.Pkt)
	s.notePush(victim, tx.Pkt.Class, out.id)
	out.tx = nil
	arb.MaskClear(s.outTx, out.id)
	s.txPool.Put(tx)
	s.grant(out, now, reqs[w], false)
	return true
}

// transfer moves one flit of the output's in-flight packet, completing the
// packet (and possibly chaining a successor) when the last flit leaves.
// With fault injection enabled, the receiver's modeled CRC check runs on
// the completed packet: a corrupted packet is NACKed back to the head of
// its input queue for backoff-and-retry, or dropped once its retry
// budget is spent. Either way the channel cycles it consumed are wasted.
//
//ssvc:hotpath
func (s *Switch) transfer(out *outputPort, now noc.Cycle) {
	s.DataCycles++
	tx := out.tx
	tx.Remaining--
	if tx.Remaining > 0 {
		return
	}
	pkt := tx.Pkt
	in := s.inputs[tx.Input]
	s.freeInput(in)
	out.tx = nil
	arb.MaskClear(s.outTx, out.id)
	s.txPool.Put(tx)
	if s.faults != nil && s.faults.CorruptArrival(pkt) {
		s.WastedFlits += uint64(pkt.Length)
		if s.faults.Retry(now, pkt) {
			in.bufferFor(pkt.Class, out.id).PushFront(pkt)
			s.notePush(in, pkt.Class, out.id)
		} else {
			s.Dropped++
			s.Drop(pkt)
		}
		return // the NACK turnaround consumes the chaining opportunity
	}
	pkt.DeliveredAt = now
	s.Delivered++
	s.Deliver(pkt)
	if s.cfg.PacketChaining {
		s.tryChain(out, now)
	}
}

// tryChain performs the overlapped arbitration of packet chaining [10]:
// the arbitration for the channel's next packet happens under its last
// data flit, so the winner starts immediately and the dedicated
// arbitration cycle is elided. All requesters compete through the normal
// arbiter, so class priority, reservations, and tie-breaking are exactly
// as in a dedicated cycle — chaining buys throughput, never ordering.
// The requesters include inputs freed earlier in this very cycle, which
// have no standing offer until the next refresh, so chaining asks every
// idle input directly.
//
//ssvc:hotpath
func (s *Switch) tryChain(out *outputPort, now noc.Cycle) {
	reqs := s.arbReqs[:0]
	for w := range s.inQ {
		m := s.inQ[w] &^ s.inBusy[w]
		for m != 0 {
			i := w<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			s.offers.Evals++
			if dst, req, ok := s.currentRequest(i, now); ok && dst == out.id {
				reqs = append(reqs, req)
			}
		}
	}
	if len(reqs) == 0 {
		return
	}
	w := out.arb.Arbitrate(now, reqs)
	if w < 0 {
		return
	}
	s.Chained++
	s.grant(out, now, reqs[w], true)
}

// grant commits a packet to the output channel. Data moves starting next
// cycle; chained grants reuse the current data cycle's tail, preserving
// back-to-back transmission.
//
//ssvc:hotpath
func (s *Switch) grant(out *outputPort, now noc.Cycle, req arb.Request, chained bool) {
	in := s.inputs[req.Input]
	buf := in.bufferFor(req.Class, out.id)
	p := buf.Pop()
	if p != req.Packet {
		//ssvc:coldpath the engine freezes sick here, so this error path may allocate
		// A grant must match the queue head the offer was built from. A
		// mismatch means simulator state is corrupt; freeze the engine
		// with a descriptive error instead of killing the whole sweep
		// pool (the experiments layer surfaces Err per sweep point).
		head := "empty queue"
		if p != nil {
			head = fmt.Sprintf("packet %d", p.ID)
		}
		s.fail(fmt.Errorf("switchsim: cycle %d: output %d granted packet %d but input %d head is %s",
			now, out.id, req.Packet.ID, req.Input, head))
		return
	}
	p.GrantedAt = now
	in.busy = true
	arb.MaskSet(s.inBusy, in.id)
	// At once, so no later output this cycle sees the winner's offer (a
	// chained winner freed this cycle has none yet).
	s.offers.Withdraw(in.id)
	s.notePop(in, req.Class, out.id, buf)
	// Freed buffer space can unblock a previously barren admission scan.
	s.sources.Unskip(in.id)
	if req.Class == noc.GuaranteedBandwidth {
		in.gbRR = (out.id + 1) % s.cfg.Radix
	}
	out.tx = s.txPool.Get(p, req.Input)
	arb.MaskSet(s.outTx, out.id)
	// The arbiter's bandwidth accounting covers chained packets too:
	// every transmitted packet advances the flow's virtual clock.
	out.arb.Granted(now, req)
}

// dropPkt counts and releases a packet discarded by a fault.
func (s *Switch) dropPkt(p *noc.Packet) {
	s.Dropped++
	s.Drop(p)
}

// applyFailStop flushes all state referencing a port that just died:
// queued packets toward a dead output (or at a dead input) are dropped,
// and an in-flight transfer touching the dead port is aborted with its
// transmitted flits wasted. Admission dooming (see admit) guarantees no
// new packet for the dead port enters a buffer afterwards, so a
// surviving input's round-robin offer can never pin on a dead output.
// This is a cold path; its closures may allocate.
func (s *Switch) applyFailStop(now noc.Cycle, f faults.FailStop) {
	all := func(*noc.Packet) bool { return true }
	if f.Input {
		in := s.inputs[f.Port]
		in.be.DropWhere(all, s.dropPkt)
		in.gl.DropWhere(all, s.dropPkt)
		for _, q := range in.gb {
			if q != nil {
				q.DropWhere(all, s.dropPkt)
			}
		}
		for _, out := range s.outputs {
			if out.tx != nil && out.tx.Input == f.Port {
				s.abortTx(out)
			}
		}
		in.busy = false
	} else {
		toDead := func(p *noc.Packet) bool { return p.Dst == f.Port }
		for _, in := range s.inputs {
			in.be.DropWhere(toDead, s.dropPkt)
			in.gl.DropWhere(toDead, s.dropPkt)
			if q := in.gb[f.Port]; q != nil {
				q.DropWhere(all, s.dropPkt)
			}
		}
		if out := s.outputs[f.Port]; out.tx != nil {
			s.abortTx(out)
		}
	}
	if s.onFailStop != nil {
		s.onFailStop(now, f)
	}
	s.recomputeMasks()
}

// recomputeMasks rebuilds every work mask from first principles. Fault
// handling flushes buffers and aborts transfers wholesale; re-deriving
// the masks afterwards is simpler and safer than patching them through
// each drop. Standing offers go the same way: all are withdrawn and
// every input marked, so the next refresh re-derives them. Every
// admission skip and remembered refusal is forgotten. Cold path.
func (s *Switch) recomputeMasks() {
	arb.MaskZero(s.inQ)
	arb.MaskZero(s.inBusy)
	arb.MaskZero(s.outTx)
	s.offers.Reset()
	s.sources.ForgetSkips()
	for _, in := range s.inputs {
		n := in.gl.Len() + in.be.Len()
		arb.MaskZero(in.gbOcc)
		for o, q := range in.gb {
			if q != nil && q.Len() > 0 {
				arb.MaskSet(in.gbOcc, o)
				n += q.Len()
			}
		}
		s.pkts[in.id] = n
		if n > 0 {
			arb.MaskSet(s.inQ, in.id)
		}
		if in.busy {
			arb.MaskSet(s.inBusy, in.id)
		}
	}
	for _, out := range s.outputs {
		if out.tx != nil {
			arb.MaskSet(s.outTx, out.id)
		}
	}
}

// abortTx kills an output's in-flight transfer, wasting the flits already
// moved and dropping the packet (its source or destination is dead).
func (s *Switch) abortTx(out *outputPort) {
	tx := out.tx
	pkt := tx.Pkt
	s.WastedFlits += uint64(pkt.Length - tx.Remaining)
	s.inputs[tx.Input].busy = false
	out.tx = nil
	s.txPool.Put(tx)
	s.dropPkt(pkt)
}
