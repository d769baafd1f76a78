package arb

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// RoundRobin is a rotating-priority arbiter: the pointer starts one past
// the last granted input, and the first requesting input at or after the
// pointer wins. Like LRG it converges to an equal bandwidth split under
// congestion but can be unfair over short windows when request patterns
// correlate with the pointer position.
//
// NewRoundRobin bounds n to 1..4096 and the modulo keeps next below n,
// so the pointer arithmetic cannot wrap for any Input below 2^31-4096
// (a 32-bit int's range less n), far above any radix a switch is built
// with.
type RoundRobin struct {
	unclocked
	n int
	// next is the highest-priority input this cycle.
	next int
}

// NewRoundRobin returns a round-robin arbiter over n inputs.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 || n > 4096 {
		panic(fmt.Sprintf("arb: round robin size %d outside [1,4096]", n))
	}
	return &RoundRobin{n: n}
}

// Arbitrate implements Arbiter.
//
//ssvc:hotpath
func (a *RoundRobin) Arbitrate(now noc.Cycle, reqs []Request) int {
	if len(reqs) == 0 {
		return -1
	}
	best, bestDist := -1, a.n
	for i, r := range reqs {
		d := (r.Input - a.next + a.n) % a.n
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// Granted implements Arbiter.
func (a *RoundRobin) Granted(now noc.Cycle, req Request) {
	a.next = (req.Input + 1) % a.n
}

// MultiLevel is the fixed-priority message-level QoS of the prior Swizzle
// Switch design [14]: each request carries a priority level and the highest
// level always wins, with LRG breaking ties inside a level.
//
// The paper lists its three shortcomings (§2.2): inputs cannot control how
// much bandwidth a level receives, low levels can starve, and the original
// implementation needed two arbitration cycles. It is included as a
// starvation baseline for the ablation benches.
type MultiLevel struct {
	unclocked
	levels func(Request) int // maps a request to its priority level
	state  *LRGState
}

// NewMultiLevel returns a fixed-priority arbiter over n inputs. levels maps
// each request to its priority level (higher wins); if nil, the request's
// traffic class is used as the level, mirroring BE < GB < GL strict
// priority without any bandwidth regulation.
func NewMultiLevel(n int, levels func(Request) int) *MultiLevel {
	if levels == nil {
		levels = func(r Request) int { return int(r.Class) }
	}
	return &MultiLevel{levels: levels, state: NewLRGState(n)}
}

// Arbitrate implements Arbiter.
//
//ssvc:hotpath
func (a *MultiLevel) Arbitrate(now noc.Cycle, reqs []Request) int {
	best := -1
	bestLevel := -1
	for i, r := range reqs {
		lv := a.levels(r)
		if lv > bestLevel || (lv == bestLevel && (best < 0 || a.state.HasPriority(r.Input, reqs[best].Input))) {
			best, bestLevel = i, lv
		}
	}
	return best
}

// Granted implements Arbiter.
func (a *MultiLevel) Granted(now noc.Cycle, req Request) { a.state.Grant(req.Input) }
