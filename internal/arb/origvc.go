package arb

import (
	"fmt"
	"math"

	"swizzleqos/internal/noc"
)

// OrigVC implements the original Virtual Clock algorithm [19] exactly as
// quoted in §2.2 of the paper:
//
//	Upon receiving each packet from flow i,
//	  1. auxVC <- max(auxVC, real time)
//	  2. auxVC <- auxVC + Vtick_i
//	  3. stamp the packet with the auxVC value
//	Transmit packets in the order of increasing stamp values.
//
// Stamps are exact (unbounded counters, no coarse quantisation), so the
// algorithm exhibits the bandwidth/latency coupling of Figure 5: flows
// with low reserved rates carry large Vticks, stamp far into the future,
// and suffer high average latency.
type OrigVC struct {
	unclocked
	vticks []noc.VTime // per input, cycles per packet at the reserved rate
	aux    []noc.VTime // per-flow virtual clocks
	state  *LRGState
}

// NewOrigVC returns an original-Virtual-Clock arbiter for one output of a
// radix-n switch. vticks[i] is input i's Vtick in cycles (FlowSpec.Vtick);
// an input with Vtick 0 has no reservation and its packets always lose to
// stamped traffic (best-effort behaviour).
func NewOrigVC(n int, vticks []noc.VTime) *OrigVC {
	if len(vticks) != n {
		panic(fmt.Sprintf("arb: OrigVC needs %d vticks, got %d", n, len(vticks)))
	}
	return &OrigVC{
		vticks: append([]noc.VTime(nil), vticks...),
		aux:    make([]noc.VTime, n),
		state:  NewLRGState(n),
	}
}

// PacketArrived implements ArrivalObserver, performing steps 1-3 of the
// algorithm.
func (a *OrigVC) PacketArrived(now noc.Cycle, pkt *noc.Packet) {
	i := pkt.Src
	if a.vticks[i] == 0 {
		pkt.Stamp = math.MaxUint64
		return
	}
	// Step 1 reads the real-time clock into the virtual domain.
	if nv := noc.VTimeOfCycle(now); nv > a.aux[i] {
		a.aux[i] = nv
	}
	a.aux[i] += a.vticks[i]
	pkt.Stamp = a.aux[i]
}

// Arbitrate implements Arbiter: the smallest stamp wins; LRG breaks ties.
//
//ssvc:hotpath
func (a *OrigVC) Arbitrate(now noc.Cycle, reqs []Request) int {
	best := -1
	bestStamp := noc.VTime(math.MaxUint64)
	for i, r := range reqs {
		s := r.Packet.Stamp
		if best == -1 || s < bestStamp || (s == bestStamp && a.state.HasPriority(r.Input, reqs[best].Input)) {
			best, bestStamp = i, s
		}
	}
	return best
}

// Granted implements Arbiter.
func (a *OrigVC) Granted(now noc.Cycle, req Request) { a.state.Grant(req.Input) }

// Aux returns flow i's current virtual clock, for tests.
func (a *OrigVC) Aux(i int) noc.VTime { return a.aux[i] }
