package arb

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// CCSP is Credit-Controlled Static Priority arbitration [Akesson et al.,
// RTCSA 2008], the related-work scheme the paper credits with decoupling
// latency from the allocated rate (§5): each input is provisioned with a
// rate (credits per cycle, in flits) and a burst allowance, and eligible
// inputs — those whose accumulated credit covers their head packet — are
// served in a static priority order. A low-rate input placed at high
// priority therefore sees low latency, at the cost of static priorities
// and per-input provisioning state.
//
// The optional work-conserving mode hands slack cycles to the
// highest-priority requester even when no one is eligible, mirroring the
// switch's work-conserving channel.
type CCSP struct {
	rate           []float64 // credits (flits) earned per cycle
	burst          []float64 // credit cap
	priority       []int     // static order: lower value is served first
	credit         []float64
	lastTick       noc.Cycle
	workConserving bool
}

// NewCCSP returns a CCSP arbiter. rates[i] is input i's provisioned rate
// in flits/cycle, bursts[i] its credit cap in flits, and priorities[i]
// its static priority (lower = higher). All three must have one entry per
// input.
func NewCCSP(rates, bursts []float64, priorities []int, workConserving bool) *CCSP {
	n := len(rates)
	if n == 0 || len(bursts) != n || len(priorities) != n {
		panic(fmt.Sprintf("arb: CCSP needs equal-length rates/bursts/priorities, got %d/%d/%d",
			len(rates), len(bursts), len(priorities)))
	}
	for i := 0; i < n; i++ {
		if rates[i] < 0 || rates[i] > 1 {
			panic(fmt.Sprintf("arb: CCSP rate[%d]=%g outside [0,1]", i, rates[i]))
		}
		if bursts[i] < 1 {
			panic(fmt.Sprintf("arb: CCSP burst[%d]=%g must cover at least one flit", i, bursts[i]))
		}
	}
	return &CCSP{
		rate:           append([]float64(nil), rates...),
		burst:          append([]float64(nil), bursts...),
		priority:       append([]int(nil), priorities...),
		credit:         append([]float64(nil), bursts...), // start provisioned
		workConserving: workConserving,
	}
}

// Arbitrate implements Arbiter: the highest static priority among
// eligible (credit-covered) requests wins; with work conservation, slack
// falls through to the highest-priority requester.
//
//ssvc:hotpath
func (a *CCSP) Arbitrate(now noc.Cycle, reqs []Request) int {
	best, bestPrio := -1, int(^uint(0)>>1)
	for i, r := range reqs {
		if a.credit[r.Input] < float64(r.Packet.Length) {
			continue
		}
		if p := a.priority[r.Input]; p < bestPrio {
			best, bestPrio = i, p
		}
	}
	if best >= 0 || !a.workConserving {
		return best
	}
	for i, r := range reqs {
		if p := a.priority[r.Input]; p < bestPrio {
			best, bestPrio = i, p
		}
	}
	return best
}

// Granted implements Arbiter: service consumes credit (slack grants may
// drive it negative, deferring the input until it re-earns eligibility).
func (a *CCSP) Granted(now noc.Cycle, req Request) {
	a.credit[req.Input] -= float64(req.Packet.Length)
}

// Tick implements Arbiter: credits accrue at the provisioned rate up to
// the burst cap, once per elapsed cycle regardless of call cadence.
func (a *CCSP) Tick(now noc.Cycle) {
	if now <= a.lastTick {
		return
	}
	elapsed := float64((now - a.lastTick).Uint())
	a.lastTick = now
	for i := range a.credit {
		// Converted so the product cannot fuse into the sum (FMA): the
		// decoupling table's credits are the same bits on every GOARCH.
		a.credit[i] += float64(a.rate[i] * elapsed)
		if a.credit[i] > a.burst[i] {
			a.credit[i] = a.burst[i]
		}
	}
}

// compile-time interface checks for the whole baseline family.
var (
	_ Arbiter = (*LRG)(nil)
	_ Arbiter = (*RoundRobin)(nil)
	_ Arbiter = (*MultiLevel)(nil)
	_ Arbiter = (*WRR)(nil)
	_ Arbiter = (*DWRR)(nil)
	_ Arbiter = (*WFQ)(nil)
	_ Arbiter = (*OrigVC)(nil)
	_ Arbiter = (*CCSP)(nil)

	_ ArrivalObserver = (*WFQ)(nil)
	_ ArrivalObserver = (*OrigVC)(nil)
	_                 = noc.BestEffort
)
