// Package glbound implements the paper's guaranteed-latency analysis
// (§3.4): the worst-case waiting time of a buffered GL packet at the
// switch (Eq. 1) and the recursive per-flow burst-size budgets that keep a
// set of GL flows within their individual latency constraints (Eqs. 2-3).
package glbound

import (
	"fmt"
	"sort"
)

// Params describes the guaranteed-latency contention scenario at one
// output. Validate bounds the Eq. 1-3 integer terms.
type Params struct {
	// LMax and LMin are the maximum and minimum packet lengths in the
	// network, in flits. LMax covers the channel-release wait for a
	// packet (of any class) already holding the output.
	LMax int
	LMin int
	// NGL is the number of inputs injecting GL traffic to this output.
	NGL int
	// BufferFlits is b, the per-input GL buffer depth in flits.
	BufferFlits int
}

// Validate reports a descriptive error for malformed parameters. It is
// the check the control plane's glCheck relies on.
func (p Params) Validate() error {
	if p.LMin < 1 || p.LMax < p.LMin || p.LMax > 1<<20 {
		return fmt.Errorf("glbound: packet lengths must satisfy 1 <= lmin <= lmax <= %d, got lmin=%d lmax=%d", 1<<20, p.LMin, p.LMax)
	}
	if p.NGL < 1 || p.NGL > 4096 {
		return fmt.Errorf("glbound: NGL %d must be in [1,4096]", p.NGL)
	}
	if p.BufferFlits < 1 || p.BufferFlits > 1<<20 {
		return fmt.Errorf("glbound: buffer depth %d must be in [1,%d] flits", p.BufferFlits, 1<<20)
	}
	return nil
}

// MaxWait returns tau_GL, the worst-case waiting time in cycles for a
// buffered GL packet (Eq. 1):
//
//	tau_GL <= lmax + N_GL * (b + b/lmin)
//
// lmax is the channel-release wait, N_GL*b the transmit latency of every
// GL flit that can be buffered ahead of the packet, and N_GL*b/lmin the
// arbitration cycle paid by each buffered GL packet.
func (p Params) MaxWait() float64 {
	// The conversion keeps the product from fusing into the sum (FMA),
	// so the bound is the same number on every GOARCH.
	return float64(p.LMax) + float64(float64(p.NGL)*(float64(p.BufferFlits)+float64(p.BufferFlits)/float64(p.LMin)))
}

// Degrade returns the parameters after `failed` GL-injecting inputs
// fail-stop: the survivors compete with fewer peers, so the worst-case
// wait (Eq. 1) tightens — the analytic counterpart of the bandwidth
// redistribution the SSVC performs for GB flows. It errors if no GL
// input survives.
func (p Params) Degrade(failed int) (Params, error) {
	if failed < 0 || failed >= p.NGL {
		return Params{}, fmt.Errorf("glbound: %d failed GL inputs leaves none of %d", failed, p.NGL)
	}
	p.NGL -= failed
	return p, nil
}

// BurstBudget is one flow's admissible GL burst.
type BurstBudget struct {
	// Latency is the flow's latency constraint L_n in cycles.
	Latency float64
	// MaxPackets is sigma_n: the largest burst, in packets, the flow may
	// send while every flow still meets its constraint.
	MaxPackets float64
}

// BurstSizes evaluates Eqs. 2-3 for a set of GL flows with individual
// latency constraints (cycles), all sending lmax-flit packets to the same
// output. Constraints are sorted tightest first; the returned budgets are
// in the same sorted order:
//
//	sigma_1 = (L_1 - lmax) / ((lmax+1) * N_GL)
//	sigma_n = sigma_{n-1} + (L_n - L_{n-1}) / ((lmax+1) * (N_GL - n + 1))
//
// The flow with constraint L_n may burst as much as the flow with L_{n-1}
// plus what the extra slack buys while competing with the flows of looser
// (or equal) constraints that are still draining.
//
// Derivation (and a correction): with all bursts arriving together and
// the GL lane's LRG arbitration round-robining across flows, flow n's
// last packet is served after sum_j min(sigma_j, sigma_n) packets, each
// costing lmax+1 cycles, plus the lmax-cycle channel release, so the
// budgets must satisfy
//
//	lmax + (lmax+1) * sum_j min(sigma_j, sigma_n) <= L_n.
//
// Solving tightest-first yields the recursion above with denominator
// N_GL - n + 1. The copy of the paper this reproduction was built from
// renders the denominator as N_GL - n, which both divides by zero at
// n = N_GL and over-budgets every flow after the first — the simulation
// in internal/experiments (GLBursts) confirms the corrected form is the
// one whose budgets are actually schedulable.
func BurstSizes(lmax int, latencies []float64) ([]BurstBudget, error) {
	if lmax < 1 {
		return nil, fmt.Errorf("glbound: lmax %d must be at least 1", lmax)
	}
	n := len(latencies)
	if n == 0 {
		return nil, fmt.Errorf("glbound: no latency constraints")
	}
	sorted := append([]float64(nil), latencies...)
	sort.Float64s(sorted)
	if sorted[0] <= float64(lmax) {
		return nil, fmt.Errorf("glbound: tightest constraint %g cannot be met: even an unobstructed %d-flit packet needs more", sorted[0], lmax)
	}
	out := make([]BurstBudget, n)
	per := float64(lmax + 1)
	out[0] = BurstBudget{
		Latency:    sorted[0],
		MaxPackets: (sorted[0] - float64(lmax)) / (per * float64(n)),
	}
	for i := 1; i < n; i++ {
		remaining := n - i // N_GL - n + 1 for 1-based position n = i+1
		out[i] = BurstBudget{
			Latency:    sorted[i],
			MaxPackets: out[i-1].MaxPackets + (sorted[i]-sorted[i-1])/(per*float64(remaining)),
		}
	}
	return out, nil
}
