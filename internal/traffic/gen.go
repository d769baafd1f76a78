// Package traffic generates the synthetic workloads the paper's
// experiments are driven by: Bernoulli and bursty on/off injection at a
// target rate, periodic and trace-driven injection for time-critical
// messages, and backlogged sources for saturation measurements.
//
// Generators are open-loop: the switch owns an unbounded source queue per
// flow, and accepted throughput is measured at the output, following
// standard interconnection-network methodology.
package traffic

import (
	"fmt"
	"math"

	"swizzleqos/internal/noc"
)

// Sequence allocates unique packet IDs and, optionally, recycles packet
// structs: packets returned through Recycle back subsequent allocations,
// making steady-state generation allocation-free. The zero value is ready
// to use. It is not safe for concurrent use; each simulated switch is
// single-threaded like the hardware it models, and parallel sweeps give
// every switch its own Sequence.
type Sequence struct {
	next uint64
	free []*noc.Packet
}

// Next returns a fresh packet ID.
func (s *Sequence) Next() uint64 {
	s.next++
	return s.next
}

// Recycle hands a retired packet back for reuse. The caller guarantees no
// other component still holds the pointer (the switch's OnRelease hook
// fires only after the delivery observer has returned).
func (s *Sequence) Recycle(p *noc.Packet) {
	if p != nil {
		s.free = append(s.free, p)
	}
}

// take returns a packet struct to initialise: recycled if available,
// freshly allocated otherwise.
func (s *Sequence) take() *noc.Packet {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return p
	}
	return new(noc.Packet)
}

// Generator produces a flow's packets. Tick is called exactly once per
// cycle with the flow's current source-queue depth (in packets) and
// returns a packet created this cycle, or nil.
type Generator interface {
	Tick(now noc.Cycle, queued int) *noc.Packet
}

// Flow couples a traffic contract with the process generating its packets.
type Flow struct {
	Spec noc.FlowSpec
	Gen  Generator
}

func newPacket(seq *Sequence, spec noc.FlowSpec, now noc.Cycle) *noc.Packet {
	p := seq.take()
	// Full struct reset: a recycled packet must not leak stamps or
	// timestamps from its previous life.
	*p = noc.Packet{
		ID:        seq.Next(),
		Src:       spec.Src,
		Dst:       spec.Dst,
		Class:     spec.Class,
		Length:    spec.PacketLength,
		CreatedAt: now,
	}
	return p
}

// Bernoulli injects packets independently each cycle with probability
// rate/PacketLength, for a long-run offered load of rate flits per cycle.
type Bernoulli struct {
	spec noc.FlowSpec
	seq  *Sequence
	rng  *RNG
	p    odds
}

// CheckBernoulli reports why NewBernoulli would refuse rate flits/cycle
// for spec: the implied per-cycle probability must lie in [0,1], which
// also rules out a NaN or infinite rate.
func CheckBernoulli(spec noc.FlowSpec, rate float64) error {
	if spec.PacketLength < 1 {
		return fmt.Errorf("traffic: packet length %d < 1", spec.PacketLength)
	}
	if p := rate / float64(spec.PacketLength); !(p >= 0 && p <= 1) { // accepting form: NaN lands here too
		return fmt.Errorf("traffic: rate %g with %d-flit packets needs per-cycle probability %g outside [0,1]",
			rate, spec.PacketLength, p)
	}
	return nil
}

// NewBernoulli returns a Bernoulli source offering rate flits/cycle. It
// panics on what CheckBernoulli reports.
func NewBernoulli(seq *Sequence, spec noc.FlowSpec, rate float64, seed uint64) *Bernoulli {
	if err := CheckBernoulli(spec, rate); err != nil {
		panic(err.Error())
	}
	return &Bernoulli{spec: spec, seq: seq, rng: NewRNG(seed), p: oddsOf(rate / float64(spec.PacketLength))}
}

// Tick implements Generator.
func (g *Bernoulli) Tick(now noc.Cycle, queued int) *noc.Packet {
	if !g.rng.draw(g.p) {
		return nil
	}
	return newPacket(g.seq, g.spec, now)
}

// Periodic injects one packet every interval cycles, starting at offset.
// It models isochronous traffic and the infrequent time-critical messages
// of the guaranteed-latency class.
type Periodic struct {
	spec     noc.FlowSpec
	seq      *Sequence
	interval noc.Cycle
	offset   noc.Cycle
}

// NewPeriodic returns a periodic source. interval must be positive.
func NewPeriodic(seq *Sequence, spec noc.FlowSpec, interval, offset noc.Cycle) *Periodic {
	if interval == 0 {
		panic("traffic: periodic interval must be positive")
	}
	return &Periodic{spec: spec, seq: seq, interval: interval, offset: offset}
}

// Tick implements Generator.
func (g *Periodic) Tick(now noc.Cycle, queued int) *noc.Packet {
	if now < g.offset || noc.SatSub(now, g.offset)%g.interval != 0 {
		return nil
	}
	return newPacket(g.seq, g.spec, now)
}

// Bursty is a two-state on/off (interrupted Bernoulli) source: while ON it
// emits packets back to back (one per PacketLength cycles); OFF periods are
// sized so the long-run offered load equals the target rate. Figure 5's
// latency-fairness results call out bursty injection explicitly.
type Bursty struct {
	spec noc.FlowSpec
	seq  *Sequence
	rng  *RNG

	on        bool
	nextEmit  noc.Cycle
	exitProb  odds // per-packet probability of ending a burst
	enterProb odds // per-cycle probability of starting a burst
}

// CheckBursty reports why NewBursty would refuse the long-run rate or the
// mean burst length: the rate must lie in (0,1] and the burst be a finite
// number of packets, at least one. NaN fails both.
func CheckBursty(rate, meanBurstPackets float64) error {
	if !(rate > 0 && rate <= 1) {
		return fmt.Errorf("traffic: bursty rate %g outside (0,1]", rate)
	}
	if !(meanBurstPackets >= 1) {
		return fmt.Errorf("traffic: mean burst %g < 1 packet", meanBurstPackets)
	}
	if math.IsInf(meanBurstPackets, 1) {
		return fmt.Errorf("traffic: mean burst %g is not finite", meanBurstPackets)
	}
	return nil
}

// NewBursty returns a bursty source with the given long-run rate in
// flits/cycle and mean burst length in packets. It panics on what
// CheckBursty reports.
func NewBursty(seq *Sequence, spec noc.FlowSpec, rate float64, meanBurstPackets float64, seed uint64) *Bursty {
	if err := CheckBursty(rate, meanBurstPackets); err != nil {
		panic(err.Error())
	}
	l := float64(spec.PacketLength)
	// Long-run load: on-time = B*L cycles per burst; mean off-time
	// chosen so that on/(on+off) = rate.
	meanOff := meanBurstPackets * l * (1 - rate) / rate
	enter := 1.0
	if meanOff > 0 {
		enter = 1 / meanOff
	}
	if enter > 1 {
		enter = 1
	}
	return &Bursty{
		spec:      spec,
		seq:       seq,
		rng:       NewRNG(seed),
		exitProb:  oddsOf(1 / meanBurstPackets),
		enterProb: oddsOf(enter),
	}
}

// Tick implements Generator.
func (g *Bursty) Tick(now noc.Cycle, queued int) *noc.Packet {
	if !g.on {
		if !g.rng.draw(g.enterProb) {
			return nil
		}
		g.on = true
		g.nextEmit = now
	}
	if now < g.nextEmit {
		return nil
	}
	pkt := newPacket(g.seq, g.spec, now)
	g.nextEmit = now + noc.CycleOf(uint64(g.spec.PacketLength))
	if g.rng.draw(g.exitProb) {
		g.on = false
	}
	return pkt
}

// Backlogged keeps the flow's source queue topped up so the input always
// has traffic to offer — an infinite-demand source used to measure
// saturation throughput.
type Backlogged struct {
	spec  noc.FlowSpec
	seq   *Sequence
	depth int
}

// NewBacklogged returns an infinite-demand source that maintains up to
// depth packets (at least 1) in the source queue.
func NewBacklogged(seq *Sequence, spec noc.FlowSpec, depth int) *Backlogged {
	if depth < 1 {
		depth = 1
	}
	return &Backlogged{spec: spec, seq: seq, depth: depth}
}

// Tick implements Generator.
func (g *Backlogged) Tick(now noc.Cycle, queued int) *noc.Packet {
	if queued >= g.depth {
		return nil
	}
	return newPacket(g.seq, g.spec, now)
}

// Trace injects packets at an explicit, sorted list of cycles. It is used
// by the guaranteed-latency bound experiments to place adversarial bursts.
type Trace struct {
	spec  noc.FlowSpec
	seq   *Sequence
	times []noc.Cycle
	pos   int
}

// NewTrace returns a trace-driven source; times must be non-decreasing.
func NewTrace(seq *Sequence, spec noc.FlowSpec, times []noc.Cycle) *Trace {
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			panic(fmt.Sprintf("traffic: trace times out of order at %d: %d < %d", i, times[i], times[i-1]))
		}
	}
	return &Trace{spec: spec, seq: seq, times: append([]noc.Cycle(nil), times...)}
}

// Tick implements Generator. Multiple packets stamped with the same cycle
// are injected on consecutive Ticks.
func (g *Trace) Tick(now noc.Cycle, queued int) *noc.Packet {
	if g.pos >= len(g.times) || g.times[g.pos] > now {
		return nil
	}
	g.pos++
	return newPacket(g.seq, g.spec, now)
}

// Done reports whether a trace source has injected all its packets.
func (g *Trace) Done() bool { return g.pos >= len(g.times) }
