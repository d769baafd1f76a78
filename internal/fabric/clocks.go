package fabric

import (
	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// Clocks is an engine's arbiter clock (DESIGN.md "Arbiter clocks"): it
// ticks the arbiters on the cycles one of them is due and returns at once
// on the others. Each walk ticks every arbiter in the order added (an
// early Tick is a no-op by contract) and takes the earliest deadline they
// announce afterwards; an arbiter that announces none is due again next
// cycle. The zero value has no arbiter and is due at once.
type Clocks struct {
	arbs []clocked
	due  noc.Cycle
}

// clocked is one arbiter and its deadline face (nil for none), asserted once.
type clocked struct {
	a   arb.Arbiter
	clk arb.TickScheduler
}

// Add appends an arbiter to the walk.
func (c *Clocks) Add(a arb.Arbiter) {
	clk, _ := a.(arb.TickScheduler)
	c.arbs = append(c.arbs, clocked{a: a, clk: clk})
}

// Tick runs the clock for cycle now, after the cycle's arbitration.
//
//ssvc:hotpath
func (c *Clocks) Tick(now noc.Cycle) {
	if now >= c.due {
		c.tickAll(now)
	}
}

// tickAll ticks every arbiter and gathers the next deadline.
//
//ssvc:hotpath
func (c *Clocks) tickAll(now noc.Cycle) {
	due := arb.NeverTick
	for _, k := range c.arbs {
		k.a.Tick(now)
		next := now + 1
		if k.clk != nil {
			next = k.clk.NextTick()
		}
		if next < due {
			due = next
		}
	}
	c.due = due
}
