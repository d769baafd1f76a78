package stats

import "swizzleqos/internal/noc"

// Windowed splits delivery observation into consecutive phases, each
// with its own Collector. It exists for fault experiments: guarantee
// adherence must be judged separately before, during, and after a fault
// window, because a single whole-run average hides both the dip and the
// recovery (see internal/experiments, faults).
type Windowed struct {
	phases []*Collector
}

// NewWindowed returns a phase-split collector over len(bounds)-1
// consecutive phases; phase i observes deliveries in cycles
// [bounds[i], bounds[i+1]). Bounds must be non-decreasing and there
// must be at least two.
func NewWindowed(bounds ...noc.Cycle) *Windowed {
	if len(bounds) < 2 {
		//ssvc:allow panicfreeze constructor precondition: fewer than two bounds is a programming error
		panic("stats: windowed collector needs at least two bounds")
	}
	w := &Windowed{phases: make([]*Collector, len(bounds)-1)}
	for i := range w.phases {
		if bounds[i] > bounds[i+1] {
			//ssvc:allow panicfreeze constructor precondition: unsorted bounds are a programming error
			panic("stats: windowed collector bounds must be non-decreasing")
		}
		w.phases[i] = NewCollector(bounds[i], bounds[i+1])
	}
	return w
}

// OnDeliver dispatches a delivered packet to the phase covering its
// delivery cycle. The linear scan is fine: fault experiments use a
// handful of phases. Packets outside every phase are ignored.
func (w *Windowed) OnDeliver(p *noc.Packet) {
	for _, c := range w.phases {
		if p.DeliveredAt < c.End {
			c.OnDeliver(p)
			return
		}
	}
}

// Phase returns phase i's collector.
func (w *Windowed) Phase(i int) *Collector { return w.phases[i] }
