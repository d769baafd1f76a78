package arb

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// TDM is true time-division multiplexing (§2.2): the output channel's
// cycles are divided into a fixed slot table, and each cycle belongs to
// exactly one input. "If the source has no packets to send, that time
// slot is wasted and results in link underutilization" — the property
// Virtual Clock was designed to fix, and the mechanism behind the
// Æthereal and Nostrum guaranteed-throughput services the paper cites in
// §5. A packet may only start in one of its owner's slots; once started
// it holds the channel to completion (the slot table paces packet starts,
// matching the per-packet granularity of the rest of the model).
type TDM struct {
	unclocked
	table []int // slot s belongs to input table[s mod len]
}

// NewTDM returns a TDM arbiter with the given slot table; table[s] is the
// input that owns slot s. The table repeats cyclically, so bandwidth
// shares are the inputs' slot counts.
func NewTDM(table []int) *TDM {
	if len(table) == 0 {
		panic("arb: TDM needs a non-empty slot table")
	}
	for s, in := range table {
		if in < 0 {
			panic(fmt.Sprintf("arb: TDM slot %d assigned to negative input %d", s, in))
		}
	}
	return &TDM{table: append([]int(nil), table...)}
}

// UniformTDMTable builds a round-robin slot table over n inputs with the
// given slot length in cycles (typically the packet length plus its
// arbitration cycle, so each slot admits one packet start).
func UniformTDMTable(n, slotCycles int) []int {
	if n < 1 || slotCycles < 1 {
		panic(fmt.Sprintf("arb: uniform TDM table over %d inputs with %d-cycle slots", n, slotCycles))
	}
	table := make([]int, n*slotCycles)
	for i := range table {
		table[i] = i / slotCycles
	}
	return table
}

// Owner returns the input owning the slot at the given cycle.
func (a *TDM) Owner(now noc.Cycle) int {
	return a.table[now.Uint()%uint64(len(a.table))]
}

// Arbitrate implements Arbiter: the slot's owner is served if it is
// requesting; otherwise the cycle is wasted — deliberately not
// work-conserving.
//
//ssvc:hotpath
func (a *TDM) Arbitrate(now noc.Cycle, reqs []Request) int {
	owner := a.Owner(now)
	for i, r := range reqs {
		if r.Input == owner {
			return i
		}
	}
	return -1
}

// Granted implements Arbiter.
func (a *TDM) Granted(now noc.Cycle, req Request) {}

var _ Arbiter = (*TDM)(nil)
