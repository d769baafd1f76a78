package switchsim

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// This file is the crossbar's share of a full-state snapshot
// (internal/ctlplane, DESIGN.md "Recovery"). The state is what a cycle
// reads that no earlier cycle can be asked for again: the clock and the
// counters, the fault injector, every flow slot with its source queue
// and arming, per input the transmit flag, the GB rotation, the
// admission-skip bit, the admission rotation and every buffer, per output
// the in-flight transmission and the arbiter. The work masks and the
// standing offers are images of that state and are re-derived; the offers'
// Evals count is a diagnostic of the host's work, not of the simulation, and starts
// again at zero. A GB virtual output queue not yet built is written as
// the empty buffer it stands for, and restore builds one only for an
// entry that holds packets or a reservation, so a restored switch
// re-encodes to the same bytes.

// unbuiltVOQ is what AppendState writes for a VOQ not yet built. Nothing
// is ever pushed onto it.
var unbuiltVOQ fabric.Buffer

// counterWords lists the counters a snapshot carries, in the order it
// carries them.
func (s *Switch) counterWords() [12]*uint64 {
	return [...]*uint64{
		&s.Injected, &s.Admitted, &s.Delivered, &s.Dropped, &s.ArbCycles, &s.IdleCycles, &s.DataCycles,
		&s.SkippedOutputs, &s.SkippedAdmits, &s.Chained, &s.Preempted, &s.WastedFlits,
	}
}

// AppendState appends the switch's simulation state. It is for the gap
// between two cycles. Generators are not written: their owner does that
// (and hands them back through RestoreState's flowAt). It fails when an
// output's arbiter does not implement arb.Stateful.
func (s *Switch) AppendState(b []byte) ([]byte, error) {
	b = wire.Uint(b, s.now.Uint())
	for _, c := range s.counterWords() {
		b = wire.Uint(b, *c)
	}
	if s.faults != nil {
		b = s.faults.AppendState(b)
	}

	calReady, lastNow := s.sources.Clock()
	b = wire.Bool(b, calReady)
	b = wire.Uint(b, lastNow.Uint())
	b = wire.Int(b, s.sources.Len())
	for i := 0; i < s.sources.Len(); i++ {
		b = wire.Int(b, s.sources.GroupOf(i))
		b = s.sources.AppendFlowState(b, i)
	}

	for _, in := range s.inputs {
		b = wire.Bool(b, in.busy)
		b = wire.Int(b, in.gbRR)
		b = wire.Bool(b, arb.MaskHas(s.sources.SkipMask(), in.id))
		b = s.sources.AppendGroupState(b, in.id)
		b = in.gl.AppendState(b)
		b = in.be.AppendState(b)
		for _, q := range in.gb {
			if q == nil {
				q = &unbuiltVOQ
			}
			b = q.AppendState(b)
		}
	}

	for _, out := range s.outputs {
		b = wire.Bool(b, out.tx != nil)
		if tx := out.tx; tx != nil {
			b = wire.Int(b, tx.Input)
			b = wire.Int(b, tx.Remaining)
			b = fabric.AppendPacket(b, tx.Pkt)
		}
		st, ok := out.arb.(arb.Stateful)
		if !ok {
			return b, fmt.Errorf("switchsim: output %d's arbiter %T cannot be snapshotted", out.id, out.arb)
		}
		b = st.AppendState(b)
	}
	return b, nil
}

// RestoreState reads what AppendState wrote into a switch New has just
// built from the same configuration, with its fault schedule installed and no flow attached. maxLen bounds every
// packet's length; flowAt returns the flow of live slot i, its generator
// already restored, and is asked in ascending i. Everything read is
// checked against the geometry and against the rest of the state before
// the cycle loop can index with it; after an error the switch is not to
// be used.
func (s *Switch) RestoreState(r *wire.Reader, maxLen int, flowAt func(i int) (traffic.Flow, error)) error {
	if s.now != 0 || s.sources.Len() != 0 {
		return fmt.Errorf("switchsim: RestoreState needs a switch fresh from New")
	}
	radix := s.cfg.Radix
	lim := fabric.PacketBounds{Ports: radix, MaxLen: maxLen}
	now := noc.CycleOf(r.Uint())
	for _, c := range s.counterWords() {
		*c = r.Uint()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if s.faults != nil {
		if err := s.faults.RestoreState(r, now); err != nil {
			return err
		}
	}
	dead := func(p *noc.Packet) bool {
		return arb.MaskHas(s.deadIn, p.Src) || arb.MaskHas(s.deadOut, p.Dst)
	}

	// The source set generates on every cycle, so its clock follows now.
	calReady, lastNow := r.Bool(), noc.CycleOf(r.Uint())
	if r.Err() == nil && (calReady != (now > 0) || lastNow != noc.SatSub(now, 1)) {
		r.Failf("switchsim: source clock (generated %v, last at %d) is not cycle %d's", calReady, lastNow.Uint(), now.Uint())
	}
	s.sources.RestoreClock(calReady, lastNow)
	flows := r.Count()
	for i := 0; i < flows; i++ {
		src := r.Index(radix)
		if err := r.Err(); err != nil {
			return err
		}
		err := s.sources.RestoreFlow(r, src, src, lim, func() (traffic.Flow, error) {
			f, err := flowAt(i)
			if err == nil {
				err = f.Spec.Validate(radix)
			}
			return f, err
		})
		if err != nil {
			return err
		}
	}

	skip := make([]bool, radix)
	for _, in := range s.inputs {
		in.busy = r.Bool()
		in.gbRR = r.Index(radix)
		skip[in.id] = r.Bool()
		if err := s.sources.RestoreGroup(r, in.id); err != nil {
			return err
		}
		// dst < 0: the queue is shared by every destination.
		restore := func(q *fabric.Buffer, class noc.Class, dst int) error {
			return q.RestoreState(r, lim, func(p *noc.Packet) bool {
				return p.Src == in.id && p.Class == class && (dst < 0 || p.Dst == dst) && !dead(p)
			})
		}
		if err := restore(in.gl, noc.GuaranteedLatency, -1); err != nil {
			return err
		}
		if err := restore(in.be, noc.BestEffort, -1); err != nil {
			return err
		}
		// A VOQ is built only for an entry that holds something; the rest
		// read into one spare, empty buffer.
		var spare *fabric.Buffer
		for o := range in.gb {
			if spare == nil {
				spare = fabric.NewBuffer(s.cfg.GBBufferFlits)
			}
			if err := restore(spare, noc.GuaranteedBandwidth, o); err != nil {
				return err
			}
			if spare.Len() > 0 || spare.Reserved() > 0 {
				in.gb[o], spare = spare, nil
			}
		}
	}

	sending := make([]bool, radix)
	for _, out := range s.outputs {
		if r.Bool() {
			input, remaining := r.Index(radix), r.Int(maxLen)
			p := fabric.ReadPacket(r, lim)
			if err := r.Err(); err != nil {
				return err
			}
			if remaining < 1 || remaining > p.Length || p.Src != input || p.Dst != out.id || sending[input] || dead(p) {
				return fmt.Errorf("switchsim: output %d cannot be sending packet %d (%d->%d, %d of %d flits left) from input %d",
					out.id, p.ID, p.Src, p.Dst, remaining, p.Length, input)
			}
			sending[input] = true
			out.tx = out.slot.Start(p, input)
			out.tx.Remaining = remaining
		}
		st, ok := out.arb.(arb.Stateful)
		if !ok {
			return fmt.Errorf("switchsim: output %d's arbiter %T cannot be restored", out.id, out.arb)
		}
		if err := st.RestoreState(r, now); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}

	// An input is busy exactly while an output is sending its packet, and
	// an admission scan is skipped only where it would admit nothing.
	for _, in := range s.inputs {
		if in.busy != sending[in.id] {
			return fmt.Errorf("switchsim: input %d busy=%v with sending=%v", in.id, in.busy, sending[in.id])
		}
		if !skip[in.id] {
			continue
		}
		barren := true
		s.sources.AdmitGroup(in.id, func(p *noc.Packet) bool {
			if dead(p) || p.Class == noc.GuaranteedBandwidth && in.gb[p.Dst] == nil || in.bufferFor(p.Class, p.Dst).CanAccept(p.Length) {
				barren = false
			}
			return false
		})
		if !barren {
			return fmt.Errorf("switchsim: input %d's admission scan is marked barren and is not", in.id)
		}
	}

	s.now = now
	// The masks from the buffers and transmissions; no offer stands, and
	// the next refresh derives one for every idle input with a packet.
	s.recomputeMasks()
	for _, in := range s.inputs {
		if skip[in.id] {
			s.sources.Skip(in.id)
		}
	}
	return nil
}
