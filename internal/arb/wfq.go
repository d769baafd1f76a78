package arb

import (
	"fmt"
	"math"

	"swizzleqos/internal/noc"
)

// WFQ is a weighted fair queueing arbiter (§2.2): it emulates bit-by-bit
// round robin by computing, for every arriving packet, the virtual finish
// time it would have under the fluid model, and serving packets in
// increasing finish-time order. The paper notes the O(N) comparator cost
// that makes WFQ unattractive for single-cycle switch arbitration; it is
// included as a scheduling-quality reference.
type WFQ struct {
	weights []float64
	finish  []float64 // last assigned finish time per input
	vtime   float64   // system virtual time
	active  int       // number of backlogged inputs observed last cycle
	stamps  map[*noc.Packet]float64
	state   *LRGState
}

// NewWFQ returns a WFQ arbiter; weights[i] is input i's bandwidth share
// (any positive unit, typically the reserved fraction).
func NewWFQ(weights []float64) *WFQ {
	if len(weights) == 0 {
		panic("arb: WFQ needs at least one weight")
	}
	for i, w := range weights {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("arb: WFQ weight[%d]=%g must be positive and finite", i, w))
		}
	}
	return &WFQ{
		weights: append([]float64(nil), weights...),
		finish:  make([]float64, len(weights)),
		stamps:  make(map[*noc.Packet]float64),
		state:   NewLRGState(len(weights)),
	}
}

// PacketArrived implements ArrivalObserver: the packet's virtual finish
// time is fixed at arrival.
func (a *WFQ) PacketArrived(now noc.Cycle, pkt *noc.Packet) {
	i := pkt.Src
	start := a.finish[i]
	if a.vtime > start {
		start = a.vtime
	}
	f := start + float64(pkt.Length)/a.weights[i]
	a.finish[i] = f
	a.stamps[pkt] = f
}

// Arbitrate implements Arbiter: minimum virtual finish time wins, LRG
// breaks ties.
//
//ssvc:hotpath
func (a *WFQ) Arbitrate(now noc.Cycle, reqs []Request) int {
	a.active = len(reqs)
	best := -1
	bestF := math.Inf(1)
	for i, r := range reqs {
		f, ok := a.stamps[r.Packet]
		if !ok {
			// Packet never observed (e.g. injected before the arbiter
			// was attached); treat as arriving now.
			a.PacketArrived(now, r.Packet)
			f = a.stamps[r.Packet]
		}
		if f < bestF || (f == bestF && (best < 0 || a.state.HasPriority(r.Input, reqs[best].Input))) {
			best, bestF = i, f
		}
	}
	return best
}

// Granted implements Arbiter.
func (a *WFQ) Granted(now noc.Cycle, req Request) {
	delete(a.stamps, req.Packet)
	a.state.Grant(req.Input)
}

// Tick implements Arbiter: system virtual time advances at the fluid rate
// 1/(sum of backlogged weights) per flit time, approximated using the
// request set seen in the most recent arbitration.
func (a *WFQ) Tick(now noc.Cycle) {
	if a.active == 0 {
		a.vtime = math.Max(a.vtime, float64(now.Uint()))
		return
	}
	var sum float64
	for _, w := range a.weights {
		sum += w
	}
	a.vtime += 1 / sum
}
