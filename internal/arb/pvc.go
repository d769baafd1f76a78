package arb

import (
	"fmt"
	"math"

	"swizzleqos/internal/noc"
)

// Preemptor is implemented by arbiters that may abort an in-flight packet
// in favour of a waiting one. The switch consults it once per cycle for a
// busy output (when preemption is enabled); a preempted packet is NACKed
// back to the head of its input queue and retransmitted from scratch,
// wasting the flits already sent.
type Preemptor interface {
	// ShouldPreempt returns the index into reqs of a request that must
	// preempt the in-flight packet, or -1 to let it finish.
	ShouldPreempt(now noc.Cycle, inflight Request, reqs []Request) int
}

// PVC is a simplified Preemptive Virtual Clock [7] (Grot, Keckler, Mutlu —
// MICRO 2009), the flexible-but-costly alternative the paper positions
// SSVC against. Flows carry exact per-packet Virtual Clock stamps (as in
// the original algorithm); instead of coarse single-cycle comparison, PVC
// lets a sufficiently higher-priority waiting packet preempt the packet
// occupying the channel. Preemption keeps low-rate flows' latency down
// without per-flow buffering, but every preemption discards the flits
// already transmitted and triggers a retransmission — bandwidth the
// switch has to resupply.
type PVC struct {
	unclocked
	vticks []noc.VTime
	aux    []noc.VTime
	state  *LRGState
	// threshold is the stamp gap (cycles of virtual time) a waiting
	// packet needs over the in-flight one to justify killing it.
	threshold noc.VTime
	// Preemptions counts aborts requested by this arbiter.
	Preemptions uint64
}

// NewPVC returns a PVC arbiter for one output of a radix-n switch.
// vticks[i] is input i's Vtick in cycles (0 = unreserved, always lowest
// priority); threshold is the minimum stamp advantage for preemption —
// small thresholds preempt aggressively, large ones converge to OrigVC.
func NewPVC(n int, vticks []noc.VTime, threshold noc.VTime) *PVC {
	if len(vticks) != n {
		panic(fmt.Sprintf("arb: PVC needs %d vticks, got %d", n, len(vticks)))
	}
	return &PVC{
		vticks:    append([]noc.VTime(nil), vticks...),
		aux:       make([]noc.VTime, n),
		state:     NewLRGState(n),
		threshold: threshold,
	}
}

// PacketArrived implements ArrivalObserver: exact Virtual Clock stamping.
func (a *PVC) PacketArrived(now noc.Cycle, pkt *noc.Packet) {
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

// Arbitrate implements Arbiter: smallest stamp wins, LRG breaks ties.
//
//ssvc:hotpath
func (a *PVC) Arbitrate(now noc.Cycle, reqs []Request) int {
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
func (a *PVC) Granted(now noc.Cycle, req Request) { a.state.Grant(req.Input) }

// ShouldPreempt implements Preemptor: the best waiting stamp preempts the
// in-flight packet when it leads by more than the threshold. A preempted
// packet keeps its stamp, so it re-enters arbitration at its original
// priority.
func (a *PVC) ShouldPreempt(now noc.Cycle, inflight Request, reqs []Request) int {
	w := a.Arbitrate(now, reqs)
	if w < 0 {
		return -1
	}
	challenger := reqs[w].Packet.Stamp
	holder := inflight.Packet.Stamp
	if challenger == math.MaxUint64 {
		return -1
	}
	if holder == math.MaxUint64 {
		a.Preemptions++
		return w
	}
	if noc.SatAdd(challenger, a.threshold) < holder {
		a.Preemptions++
		return w
	}
	return -1
}

var (
	_ Arbiter         = (*PVC)(nil)
	_ ArrivalObserver = (*PVC)(nil)
	_ Preemptor       = (*PVC)(nil)
)
