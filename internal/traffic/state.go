package traffic

import (
	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

// Stateful is implemented by the generators a full-state snapshot can
// carry (internal/ctlplane): the three the control plane attaches.
// AppendState appends everything a generator built by its constructor
// from the same flow spec does not already hold — the RNG word, the
// dynamic fields, and the injection parameters a later resize of the
// reservation no longer lets the constructor's caller derive — and
// RestoreState reads it back into such a generator, refusing values no
// run could have produced.
type Stateful interface {
	Generator
	AppendState(b []byte) []byte
	RestoreState(r *wire.Reader) error
}

var (
	_ Stateful = (*Bernoulli)(nil)
	_ Stateful = (*Periodic)(nil)
	_ Stateful = (*ClosedLoop)(nil)
)

// AppendState appends the next packet ID. The free list is storage, not
// state.
func (s *Sequence) AppendState(b []byte) []byte { return wire.Uint(b, s.next) }

// RestoreState reads what AppendState wrote.
func (s *Sequence) RestoreState(r *wire.Reader) { s.next = r.Uint() }

// AppendState appends the generator's one word of state.
func (r *RNG) AppendState(b []byte) []byte { return wire.Uint(b, r.state) }

// RestoreState reads what AppendState wrote; every word is a valid state.
func (r *RNG) RestoreState(rd *wire.Reader) { r.state = rd.Uint() }

// AppendState implements Stateful.
func (g *Bernoulli) AppendState(b []byte) []byte {
	return g.rng.AppendState(wire.Uint(b, uint64(g.p)))
}

// RestoreState implements Stateful.
func (g *Bernoulli) RestoreState(r *wire.Reader) error {
	p := r.Uint()
	if p > 1<<53 {
		r.Failf("traffic: Bernoulli odds %d above certainty", p)
	}
	if r.Err() == nil {
		g.p = odds(p)
		g.rng.RestoreState(r)
	}
	return r.Err()
}

// AppendState implements Stateful. A periodic source draws nothing and
// remembers nothing; its state is its schedule.
func (g *Periodic) AppendState(b []byte) []byte {
	return wire.Uint(wire.Uint(b, g.interval.Uint()), g.offset.Uint())
}

// RestoreState implements Stateful.
func (g *Periodic) RestoreState(r *wire.Reader) error {
	interval, offset := noc.CycleOf(r.Uint()), noc.CycleOf(r.Uint())
	if r.Err() == nil && interval == 0 {
		r.Failf("traffic: periodic interval must be positive")
	}
	if r.Err() == nil {
		g.interval, g.offset = interval, offset
	}
	return r.Err()
}

// AppendState implements Stateful. The population size and the think,
// size and timeout bounds are configuration; the in-flight ring is
// written oldest request first, which is all its head index means, and a
// user is awaiting exactly while the ring names it.
func (g *ClosedLoop) AppendState(b []byte) []byte {
	b = wire.Uint(b, g.watermark)
	b = g.rng.AppendState(b)
	for u := range g.thinkUntil {
		b = wire.Uint(b, g.thinkUntil[u].Uint())
		b = wire.Int(b, g.remaining[u])
		b = wire.Int(b, g.reqSize[u])
	}
	b = wire.Int(b, g.rr)
	b = wire.Int(b, g.count)
	for k := 0; k < g.count; k++ {
		req := g.ring[(g.head+k)%len(g.ring)]
		b = wire.Int(b, req.user)
		b = wire.Int(b, req.outstanding)
		b = wire.Uint(b, req.deadline.Uint())
	}
	b = wire.Uint(b, g.Issued)
	b = wire.Uint(b, g.Done)
	return wire.Uint(b, g.TimedOut)
}

// RestoreState implements Stateful for a source built by NewClosedLoop
// with the snapshot source's configuration. A user has at most one
// request in flight, and is awaiting exactly while it has one: the ring
// is refused unless it names distinct users that have nothing left to
// emit, because push relies on a free slot being there. The watermark
// may not stand above the sequence, restored before its generators.
func (g *ClosedLoop) RestoreState(r *wire.Reader) error {
	users := len(g.thinkUntil)
	watermark := r.Uint()
	if r.Err() == nil && watermark > g.seq.next {
		r.Failf("traffic: closed-loop watermark %d above the sequence's last packet %d", watermark, g.seq.next)
	}
	var rng RNG
	rng.RestoreState(r)
	think := make([]noc.Cycle, users)
	remaining := make([]int, users)
	reqSize := make([]int, users)
	for u := 0; u < users; u++ {
		think[u] = noc.CycleOf(r.Uint())
		remaining[u] = r.Int(g.cfg.SizeMax)
		reqSize[u] = r.Int(g.cfg.SizeMax)
		if remaining[u] > reqSize[u] {
			r.Failf("traffic: closed-loop user %d has %d packets left of a %d-packet request", u, remaining[u], reqSize[u])
		}
	}
	rr := r.Index(users)
	count := r.Int(users)
	ring := make([]clRequest, users)
	awaiting := make([]bool, users)
	for k := 0; k < count; k++ {
		req := clRequest{user: r.Index(users), outstanding: r.Int(g.cfg.SizeMax), deadline: noc.CycleOf(r.Uint())}
		if r.Err() != nil {
			break
		}
		if awaiting[req.user] || remaining[req.user] != 0 || req.outstanding < 1 || req.outstanding > reqSize[req.user] {
			r.Failf("traffic: closed-loop request %d (user %d, %d outstanding) is not one in-flight request of an idle user",
				k, req.user, req.outstanding)
		}
		awaiting[req.user] = true
		ring[k] = req
	}
	issued, done, timedOut := r.Uint(), r.Uint(), r.Uint()
	if err := r.Err(); err != nil {
		return err
	}
	*g.rng = rng
	g.watermark = watermark
	g.thinkUntil, g.remaining, g.reqSize, g.awaiting = think, remaining, reqSize, awaiting
	g.rr, g.ring, g.head, g.count = rr, ring, 0, count
	g.Issued, g.Done, g.TimedOut = issued, done, timedOut
	return nil
}
