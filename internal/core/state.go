package core

import (
	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

var _ arb.Stateful = (*SSVC)(nil)

// AppendState implements arb.Stateful. The state of one output's SSVC is
// what the paper keeps per crosspoint plus the clocks: every input's
// auxVC and Vtick, the real-time epoch and its next quantum boundary, the
// GL leaky-bucket clock, the policy-event count and the LRG priority
// bits. The level and reserved planes are images of aux and the Vticks
// and are not written.
func (s *SSVC) AppendState(b []byte) []byte {
	for i := range s.aux {
		b = wire.Uint(b, s.Aux(i).Uint())
		b = wire.Uint(b, s.cfg.Vticks[i].Uint())
	}
	b = wire.Uint(b, s.base.Uint())
	b = wire.Uint(b, s.next.Uint())
	b = wire.Uint(b, s.glVC.Uint())
	b = wire.Uint(b, s.saturations)
	return s.lrg.AppendState(b)
}

// RestoreState implements arb.Stateful for an arbiter built by NewSSVC
// from the configuration the snapshot's arbiter had. A counter beyond its
// width, or an epoch that the clock could not have reached by cycle now,
// is refused: Tick catches up one quantum at a time, so an epoch left far
// behind now would cost that many iterations, not one.
func (s *SSVC) RestoreState(r *wire.Reader, now noc.Cycle) error {
	aux := make([]VTime, len(s.aux))
	vt := make([]VTime, len(s.aux))
	for i := range aux {
		aux[i] = noc.VTimeOf(r.Uint())
		vt[i] = noc.VTimeOf(r.Uint())
		if aux[i] > s.max {
			r.Failf("core: auxVC %d of input %d exceeds the %d-bit counter", aux[i].Uint(), i, s.cfg.CounterBits)
		}
	}
	base := noc.CycleOf(r.Uint())
	next := noc.CycleOf(r.Uint())
	glVC := noc.VTimeOf(r.Uint())
	saturations := r.Uint()
	// Every cycle ends with the clock ticked, so between two cycles the
	// epoch is a whole number of quanta, at most one quantum behind, and
	// the next boundary one quantum past it.
	q := noc.CycleOfVTime(s.quantum)
	if r.Err() == nil && (base > now || base%q != 0 || noc.SatSub(now, base) > q || next != base+q) {
		r.Failf("core: real-time epoch %d (next boundary %d) is not the quantum of %d cycles behind cycle %d",
			base.Uint(), next.Uint(), q.Uint(), now.Uint())
	}
	if err := s.lrg.RestoreState(r); err != nil {
		return err
	}
	copy(s.aux, aux)
	s.sub = 0
	copy(s.cfg.Vticks, vt)
	s.base, s.next = base, next
	s.glVC, s.saturations = glVC, saturations
	clear(s.lvl)
	for i := range s.aux {
		arb.MaskSet(s.plane(s.Coarse(i)), i)
	}
	s.rebuildReserved()
	return nil
}

// Vtick returns input i's current virtual clock increment (0: no
// reservation).
func (s *SSVC) Vtick(i int) VTime { return s.cfg.Vticks[i] }
