package ctlplane

import (
	"bytes"
	"fmt"
	"math"

	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// A snapshot's state blob (SnapRecord.State, DESIGN.md "Recovery") is the
// whole plane at the snapshot's cycle, less what New(header.Sim) and the
// record's own TableState already give: the plane's counters and clocks,
// one entry per reservation with its flow index and its generator's
// state, then the switch (switchsim.AppendState), which carries the
// kernel, the arbiters and the fault injector. Each layer appends its
// own state to the one buffer the plane keeps, so a checkpoint allocates
// nothing that grows with the state, and each restores and validates its
// own.

// stateVersion is the first value of a blob, moved with its layout. Version
// 2 arms closed-loop flows on the calendar, where version 1 polled them,
// and writes each closed loop's watermark.
const stateVersion = 2

// words lists the counters in the order a state blob carries them.
func (s *PlaneStats) words() [6]*uint64 {
	return [...]*uint64{&s.Admitted, &s.RejectedBudget, &s.RejectedBound, &s.RejectedOther, &s.Expired, &s.Revoked}
}

// appendState appends the plane's state. live is the table's
// reservations in id order (TableState.Reservations), which is flow
// index order: both only grow, together.
func (p *Plane) appendState(b []byte, live []Reservation) ([]byte, error) {
	b = wire.Uint(b, stateVersion)
	b = wire.Uint(b, p.seqNo)
	b = wire.Uint(b, p.snapAt.Uint())
	for _, c := range p.stats.words() {
		b = wire.Uint(b, *c)
	}
	b = wire.Uint(b, p.traceHash)
	b = wire.Uint(b, p.delivered)
	b = p.seq.AppendState(b)
	for i := range live {
		a, ok := p.attached[live[i].ID]
		if !ok {
			return b, fmt.Errorf("ctlplane: reservation %d has no source attached", live[i].ID)
		}
		b = wire.Int(b, a.flow)
		b = a.gen.AppendState(b)
	}
	return p.sw.AppendState(b)
}

// restore builds the plane a state-carrying snapshot describes, on the
// configuration of the journal's header. Nothing of the snapshot is
// trusted: the table passes Table.restore, every layer checks what it
// reads against its geometry and against the table, the failed ports
// must be the ones the fault schedule kills before the snapshot's cycle
// and the arbiters' Vticks the ones the table grants, and then the plane
// must encode to the very bytes it was read from and pass verifySnap
// against the record's own fields. Any error means the
// snapshot is not used; nothing of it survives.
func restore(cfg SimConfig, s *SnapRecord) (*Plane, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := p.tab.restore(s.Table); err != nil {
		return nil, err
	}
	if err := p.checkFailedPorts(s.Cycle); err != nil {
		return nil, err
	}
	r := wire.NewReader(s.State)
	if v := r.Uint(); r.Err() == nil && v != stateVersion {
		return nil, fmt.Errorf("ctlplane: state blob version %d, this build reads %d", v, stateVersion)
	}
	p.seqNo = r.Uint()
	p.snapAt = noc.CycleOf(r.Uint())
	for _, c := range p.stats.words() {
		*c = r.Uint()
	}
	p.traceHash = r.Uint()
	p.delivered = r.Uint()
	p.seq.RestoreState(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if p.cfg.SnapEvery > 0 && (p.snapAt <= s.Cycle || p.snapAt%p.cfg.SnapEvery != 0) {
		return nil, fmt.Errorf("ctlplane: next snapshot at cycle %d is not on the %d-cycle grid behind cycle %d",
			p.snapAt.Uint(), p.cfg.SnapEvery.Uint(), s.Cycle.Uint())
	}

	// One source per reservation, in id order; the switch then asks for
	// each by its flow index, ascending, and must ask for all of them.
	type source struct {
		flow traffic.Flow
		idx  int
	}
	sources := make([]source, 0, len(s.Table.Reservations))
	for i := range s.Table.Reservations {
		res := p.tab.Get(s.Table.Reservations[i].ID)
		idx := r.Int(math.MaxInt32)
		if n := len(sources); r.Err() == nil && n > 0 && idx <= sources[n-1].idx {
			r.Failf("ctlplane: reservation %d's flow index %d is not above its predecessor's", res.ID, idx)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		gen := p.newSource(res)
		if err := gen.RestoreState(r); err != nil {
			return nil, err
		}
		p.attached[res.ID] = attached{gen: gen, flow: idx}
		sources = append(sources, source{traffic.Flow{Spec: res.Req.Spec(), Gen: gen}, idx})
		if res.ExpiresAt != 0 {
			p.leases.push(leaseEntry{at: res.ExpiresAt, id: res.ID})
		}
	}
	claimed := 0
	err = p.sw.RestoreState(r, p.cfg.LMax, func(i int) (traffic.Flow, error) {
		if claimed == len(sources) || sources[claimed].idx != i {
			return traffic.Flow{}, fmt.Errorf("ctlplane: live flow %d belongs to no reservation", i)
		}
		claimed++
		return sources[claimed-1].flow, nil
	})
	if err != nil {
		return nil, err
	}
	if claimed != len(sources) {
		return nil, fmt.Errorf("ctlplane: reservation %d's flow %d is not live in the switch",
			s.Table.Reservations[claimed].ID, sources[claimed].idx)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("ctlplane: %d byte(s) behind the state", r.Len())
	}
	for o := 0; o < p.cfg.Radix; o++ {
		ssvc, _ := p.sw.Arbiter(o).(*core.SSVC)
		for i, vt := range p.tab.Vticks(o, p.vtArena) {
			if ssvc == nil || ssvc.Vtick(i) != vt {
				return nil, fmt.Errorf("ctlplane: output %d's arbiter does not tick input %d as the table grants it", o, i)
			}
		}
	}

	if p.sw.Now() != s.Cycle {
		return nil, fmt.Errorf("ctlplane: state of cycle %d in the snapshot of cycle %d", p.sw.Now().Uint(), s.Cycle.Uint())
	}
	again, err := p.appendState(nil, s.Table.Reservations)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, s.State) {
		return nil, fmt.Errorf("ctlplane: snapshot at cycle %d: the restored plane encodes to different bytes", s.Cycle.Uint())
	}
	if err := p.verifySnap(s); err != nil {
		return nil, err
	}
	return p, nil
}

// checkFailedPorts refuses a restored table whose failed ports are not
// exactly those of the fail-stops scheduled before cycle now: the switch
// applies the schedule itself, and the two must agree on who is dead.
func (p *Plane) checkFailedPorts(now noc.Cycle) error {
	in, out := make([]bool, p.cfg.Radix), make([]bool, p.cfg.Radix)
	if p.cfg.Faults != nil {
		for _, f := range p.cfg.Faults.FailStops {
			if f.At >= now {
				continue
			}
			if f.Input {
				in[f.Port] = true
			} else {
				out[f.Port] = true
			}
		}
	}
	for port := range in {
		if in[port] != p.tab.inDown[port] || out[port] != p.tab.outDown[port] {
			return fmt.Errorf("ctlplane: port %d's failed state is not the fault schedule's before cycle %d", port, now.Uint())
		}
	}
	return nil
}
