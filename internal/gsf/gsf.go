// Package gsf is a simplified model of Globally-Synchronized Frames
// (GSF) [Lee, Ng, Asanović — ISCA 2008], the frame-based QoS scheme the
// paper compares against in §2.2: "a frame-based approach that controls
// the number of packets injected into the network at the source. It
// requires a global barrier network across all nodes, which adds overhead
// and can be slow."
//
// Time is divided into frames. Each source holds a per-frame injection
// budget proportional to its reservation; a packet is stamped with the
// earliest open frame whose budget can still cover it and is throttled at
// the source when every open frame is exhausted. The switch serves
// packets in frame order (earliest frame first, LRG inside a frame).
// When the head frame has fully drained, a global barrier retires it and
// opens a new one — after BarrierLatency cycles, modelling the cost of
// the barrier network.
//
// The model intentionally lives at the sources and the arbiter, matching
// GSF's architecture; contrast with SSVC, which needs no source
// coordination and no global barrier.
package gsf

import (
	"fmt"
	"math"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// Config sizes the frame machinery.
type Config struct {
	// Inputs is the number of sources (the switch radix).
	Inputs int
	// FrameFlits is one frame's total flit capacity F; a source with
	// reservation r may inject r*F flits per frame.
	FrameFlits int
	// Window is the number of simultaneously open frames (GSF's W);
	// deeper windows absorb bursts at the cost of weaker short-term
	// guarantees.
	Window int
	// BarrierLatency is the cost in cycles of the global barrier that
	// retires a drained frame.
	BarrierLatency noc.Cycle
	// Rates[i] is source i's reserved fraction of the hot resource.
	Rates []float64
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Inputs < 1 {
		return fmt.Errorf("gsf: inputs %d must be positive", c.Inputs)
	}
	if c.FrameFlits < 1 {
		return fmt.Errorf("gsf: frame capacity %d must be positive", c.FrameFlits)
	}
	if c.Window < 1 {
		return fmt.Errorf("gsf: frame window %d must be positive", c.Window)
	}
	if len(c.Rates) != c.Inputs {
		return fmt.Errorf("gsf: got %d rates for %d inputs", len(c.Rates), c.Inputs)
	}
	for i, r := range c.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("gsf: rate[%d]=%g outside [0,1]", i, r)
		}
	}
	return nil
}

// Controller is the shared frame state: the source-side admission gate
// and the frame-retiring barrier. It is not safe for concurrent use.
type Controller struct {
	cfg    Config
	budget []uint64 // per-input flits per frame

	head     uint64              // earliest open frame
	used     map[uint64][]uint64 // per open frame, flits stamped per input
	inflight map[uint64]int      // packets stamped but not yet delivered

	barrierBusyUntil noc.Cycle

	// Throttled counts admission attempts refused for lack of budget.
	Throttled uint64
	// Retired counts frames recycled by the barrier.
	Retired uint64
}

// NewController builds the frame controller. It panics on an invalid
// configuration; use Config.Validate first for external input.
func NewController(cfg Config) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{
		cfg:      cfg,
		budget:   make([]uint64, cfg.Inputs),
		used:     make(map[uint64][]uint64),
		inflight: make(map[uint64]int),
	}
	for i, r := range cfg.Rates {
		c.budget[i] = uint64(math.Floor(r * float64(cfg.FrameFlits)))
		if c.budget[i] == 0 && r > 0 {
			c.budget[i] = 1
		}
	}
	return c
}

// Admit is the switch's AdmissionGate: it stamps the packet with the
// earliest open frame that still has budget for the source and charges
// it, or refuses (source throttling).
func (c *Controller) Admit(now noc.Cycle, p *noc.Packet) bool {
	length := uint64(p.Length)
	for f := c.head; f < c.head+uint64(c.cfg.Window); f++ {
		u := c.used[f]
		if u == nil {
			u = make([]uint64, c.cfg.Inputs)
			c.used[f] = u
		}
		if u[p.Src]+length > c.budget[p.Src] {
			continue
		}
		u[p.Src] += length
		p.Stamp = noc.VTimeOf(f)
		c.inflight[f]++
		return true
	}
	c.Throttled++
	return false
}

// Delivered retires a packet from its frame's in-flight count; the switch
// delivery observer must call it for every packet.
func (c *Controller) Delivered(p *noc.Packet) {
	c.inflight[p.Stamp.Uint()]--
}

// Tick advances the barrier: when the head frame has no in-flight packets
// and the barrier network is free, the frame retires after BarrierLatency
// cycles and the window slides.
func (c *Controller) Tick(now noc.Cycle) {
	if now < c.barrierBusyUntil {
		return
	}
	if c.inflight[c.head] > 0 {
		return
	}
	delete(c.inflight, c.head)
	delete(c.used, c.head)
	c.head++
	c.Retired++
	c.barrierBusyUntil = now + c.cfg.BarrierLatency
}

// Head returns the earliest open frame, for tests.
func (c *Controller) Head() uint64 { return c.head }

// Arbiter serves packets in frame order (the stamp set by Admit), with
// LRG breaking ties inside a frame. One Arbiter per switch output, all
// sharing the Controller via the packet stamps.
type Arbiter struct {
	state *arb.LRGState
	ctl   *Controller
}

// NewArbiter returns a frame-ordered arbiter over n inputs.
func NewArbiter(n int, ctl *Controller) *Arbiter {
	return &Arbiter{state: arb.NewLRGState(n), ctl: ctl}
}

// Arbitrate implements arb.Arbiter: earliest frame wins; LRG breaks ties.
func (a *Arbiter) Arbitrate(now noc.Cycle, reqs []arb.Request) int {
	best := -1
	var bestFrame noc.VTime
	for i, r := range reqs {
		f := r.Packet.Stamp
		if best == -1 || f < bestFrame || (f == bestFrame && a.state.HasPriority(r.Input, reqs[best].Input)) {
			best, bestFrame = i, f
		}
	}
	return best
}

// Granted implements arb.Arbiter.
func (a *Arbiter) Granted(now noc.Cycle, req arb.Request) { a.state.Grant(req.Input) }

// Tick implements arb.Arbiter; the controller's barrier advances once per
// cycle through whichever arbiter ticks first (Tick is idempotent per
// cycle because retiring re-checks the in-flight count).
func (a *Arbiter) Tick(now noc.Cycle) { a.ctl.Tick(now) }

var _ arb.Arbiter = (*Arbiter)(nil)
