package arb

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// WRR is a weighted round robin arbiter (§2.2). Each input is assigned an
// integer weight in flits per frame. In its pure (non-work-conserving)
// form the frame schedule is fixed: if the scheduled input has nothing to
// send, the slot is wasted — the underutilisation the paper criticises.
// With workConserving set, unused slots are skipped, which preserves the
// bandwidth ratios but still redistributes leftover bandwidth by weight
// rather than on demand.
type WRR struct {
	unclocked
	weights        []int
	credits        []int
	ptr            int
	workConserving bool
}

// NewWRR returns a weighted round robin arbiter. weights[i] is input i's
// share of a frame, in flits; every weight must be positive. If
// workConserving is false, a slot scheduled for a non-requesting input is
// wasted (Arbitrate returns -1), emulating a TDM-like fixed schedule.
func NewWRR(weights []int, workConserving bool) *WRR {
	if len(weights) == 0 {
		panic("arb: WRR needs at least one weight")
	}
	for i, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("arb: WRR weight[%d]=%d must be positive", i, w))
		}
	}
	a := &WRR{
		weights:        append([]int(nil), weights...),
		credits:        make([]int, len(weights)),
		workConserving: workConserving,
	}
	a.refill()
	return a
}

func (a *WRR) refill() {
	copy(a.credits, a.weights)
}

// Arbitrate implements Arbiter. It may advance frame bookkeeping (credits,
// pointer) even when returning -1.
//
//ssvc:hotpath
func (a *WRR) Arbitrate(now noc.Cycle, reqs []Request) int {
	if len(reqs) == 0 {
		return -1
	}
	byInput := make(map[int]int, len(reqs))
	for i, r := range reqs {
		byInput[r.Input] = i
	}
	n := len(a.weights)
	// Two passes: if every credited slot is exhausted, refill and retry.
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < n; k++ {
			i := (a.ptr + k) % n
			if a.credits[i] <= 0 {
				continue
			}
			ri, requesting := byInput[i]
			if requesting {
				a.ptr = i
				return ri
			}
			if !a.workConserving {
				// Fixed schedule: the slot belongs to input i; burn
				// one flit of its credit and waste the cycle.
				a.credits[i]--
				a.advance()
				return -1
			}
		}
		a.refill()
	}
	return -1
}

func (a *WRR) advance() {
	n := len(a.weights)
	if a.credits[a.ptr] <= 0 {
		a.ptr = (a.ptr + 1) % n
	}
	for k := 0; k < n; k++ {
		if a.credits[a.ptr] > 0 {
			return
		}
		a.ptr = (a.ptr + 1) % n
	}
	a.refill()
}

// Granted implements Arbiter: the winner consumes credit equal to the
// packet length.
func (a *WRR) Granted(now noc.Cycle, req Request) {
	a.credits[req.Input] -= req.Packet.Length
	if a.credits[req.Input] < 0 {
		a.credits[req.Input] = 0
	}
	a.advance()
}

// DWRR is a deficit weighted round robin arbiter [Shreedhar & Varghese].
// Each input accrues a quantum of flits per round; its head packet is
// served once the accumulated deficit covers the packet length, making the
// scheme fair with variable packet sizes where plain WRR is not.
type DWRR struct {
	unclocked
	quanta      []int
	deficit     []int
	ptr         int
	turnStarted bool // quantum already credited for the current turn
}

// NewDWRR returns a deficit weighted round robin arbiter; quanta[i] is the
// per-round flit quantum of input i (must be positive).
func NewDWRR(quanta []int) *DWRR {
	if len(quanta) == 0 {
		panic("arb: DWRR needs at least one quantum")
	}
	for i, q := range quanta {
		if q <= 0 {
			panic(fmt.Sprintf("arb: DWRR quantum[%d]=%d must be positive", i, q))
		}
	}
	return &DWRR{
		quanta:  append([]int(nil), quanta...),
		deficit: make([]int, len(quanta)),
	}
}

// Arbitrate implements Arbiter. The pointer gives each input a "turn":
// arriving at an input credits its quantum exactly once, it is served
// while its deficit covers its head packet, and the pointer moves on when
// the deficit runs out. Deficit refills happen here; grant-side
// consumption happens in Granted.
//
//ssvc:hotpath
func (a *DWRR) Arbitrate(now noc.Cycle, reqs []Request) int {
	if len(reqs) == 0 {
		return -1
	}
	n := len(a.quanta)
	byInput := make(map[int]int, len(reqs))
	for i, r := range reqs {
		byInput[r.Input] = i
	}
	for visits := 0; visits < n; visits++ {
		i := a.ptr
		ri, requesting := byInput[i]
		if requesting {
			need := reqs[ri].Packet.Length
			if !a.turnStarted {
				a.deficit[i] += a.quanta[i]
				a.turnStarted = true
			}
			if a.deficit[i] >= need {
				return ri
			}
		} else {
			// An input with an empty queue loses its deficit
			// (classic DWRR).
			a.deficit[i] = 0
		}
		a.ptr = (a.ptr + 1) % n
		a.turnStarted = false
	}
	// No input can cover its head packet this round; deficits persist
	// and accumulate on subsequent calls, so oversized packets are
	// served eventually rather than starving.
	return -1
}

// Granted implements Arbiter.
func (a *DWRR) Granted(now noc.Cycle, req Request) {
	a.deficit[req.Input] -= req.Packet.Length
	if a.deficit[req.Input] < 0 {
		a.deficit[req.Input] = 0
	}
}
