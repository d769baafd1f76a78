package traffic

import (
	"math"
	"math/bits"

	"swizzleqos/internal/noc"
)

// ClosedLoopConfig parameterizes a ClosedLoop source: a fixed population
// of users alternating between thinking and issuing requests, in the
// style of the feedback-driven workloads of Firoiu et al.'s Feedback
// Output Queuing evaluation. Zero values select the defaults noted on
// each field.
type ClosedLoopConfig struct {
	// Users is the population size: the maximum number of requests the
	// flow can have outstanding. Default 1.
	Users int
	// ThinkMin/ThinkMax bound the uniform think time drawn after each
	// completed response, in cycles. Defaults 64 and 1024.
	ThinkMin noc.Cycle
	ThinkMax noc.Cycle
	// SizeMin/SizeMax bound the request size in packets. Sizes are
	// heavy-tailed: starting from SizeMin, each doubling is taken with
	// probability 1/2 (a discrete Pareto of shape 1 at octave
	// granularity), truncated at SizeMax. Defaults 1 and 64*SizeMin.
	SizeMin int
	SizeMax int
	// Timeout is the response deadline in cycles. A user whose response
	// has not fully arrived by then (packets lost to fault injection,
	// or a revoked reservation draining at best effort) gives up and
	// returns to thinking, so the closed loop can never deadlock on a
	// lossy switch. Default 65536.
	Timeout noc.Cycle
}

func (c ClosedLoopConfig) withDefaults() ClosedLoopConfig {
	if c.Users <= 0 {
		c.Users = 1
	}
	if c.ThinkMin == 0 && c.ThinkMax == 0 {
		c.ThinkMin, c.ThinkMax = noc.CycleOf(64), noc.CycleOf(1024)
	}
	if c.ThinkMax < c.ThinkMin {
		c.ThinkMax = c.ThinkMin
	}
	if c.SizeMin <= 0 {
		c.SizeMin = 1
	}
	if c.SizeMax < c.SizeMin {
		c.SizeMax = 64 * c.SizeMin
	}
	if c.Timeout == 0 {
		c.Timeout = noc.CycleOf(1 << 16)
	}
	return c
}

// clRequest is one in-flight request awaiting its response packets.
type clRequest struct {
	user        int
	outstanding int // packet deliveries still owed
	deadline    noc.Cycle
}

// ClosedLoop is a closed-loop request/response generator: each of Users
// users issues a heavy-tailed multi-packet request, waits until every
// packet of the request has been delivered (the owner of the switch
// reports deliveries through Completed), thinks for a uniform random
// time, and repeats. Offered load is therefore feedback-regulated — a
// congested or degraded reservation slows its own users down instead of
// growing an unbounded source queue — which is exactly the workload a
// reservation control plane is admitted against.
//
// Delivery accounting is aggregate: requests complete in emission order
// (the switch delivers a flow's packets in FIFO order), so Completed
// credits the oldest outstanding request. Under packet loss the timeout
// resynchronizes the loop.
//
// ClosedLoop schedules without predicting its feedback: see NextArrival.
type ClosedLoop struct {
	seq  *Sequence
	spec noc.FlowSpec
	cfg  ClosedLoopConfig
	rng  *RNG

	thinkUntil []noc.Cycle
	remaining  []int // packets left to emit for the user's current request
	reqSize    []int
	awaiting   []bool
	rr         int

	// Fixed-capacity FIFO ring of in-flight requests (at most one per
	// user), so the steady-state loop never allocates.
	ring  []clRequest
	head  int
	count int

	// watermark is the sequence's last packet ID when the source was
	// built: a delivery at or below it is an earlier flow's packet.
	watermark uint64

	// Issued/Done/TimedOut count requests over the run.
	Issued   uint64
	Done     uint64
	TimedOut uint64
}

// NewClosedLoop builds a closed-loop source for the flow spec with its
// own deterministic RNG stream.
func NewClosedLoop(seq *Sequence, spec noc.FlowSpec, cfg ClosedLoopConfig, seed uint64) *ClosedLoop {
	cfg = cfg.withDefaults()
	g := &ClosedLoop{
		seq:        seq,
		spec:       spec,
		cfg:        cfg,
		rng:        NewRNG(seed),
		thinkUntil: make([]noc.Cycle, cfg.Users),
		remaining:  make([]int, cfg.Users),
		reqSize:    make([]int, cfg.Users),
		awaiting:   make([]bool, cfg.Users),
		ring:       make([]clRequest, cfg.Users),
		watermark:  seq.next,
	}
	// Stagger the population's first requests across the think range so
	// a large user count does not issue everything on cycle 0.
	for u := range g.thinkUntil {
		g.thinkUntil[u] = g.drawThink()
	}
	return g
}

// drawThink returns a uniform think time in [ThinkMin, ThinkMax]. The
// draw stays in uint64: the range may hold all 2^64 cycle counts, which
// is one plain draw, and no int (32 bits on a 32-bit build) holds its
// size.
func (g *ClosedLoop) drawThink() noc.Cycle {
	last := noc.SatSub(g.cfg.ThinkMax, g.cfg.ThinkMin).Uint() // the range holds last+1 values
	d := g.rng.Uint64()
	if last < math.MaxUint64 {
		d %= last + 1
	}
	return g.cfg.ThinkMin + noc.CycleOf(d)
}

// drawSize returns a heavy-tailed request size in packets: SizeMin
// doubled k times with probability 2^-k, truncated at SizeMax.
func (g *ClosedLoop) drawSize() int {
	k := bits.TrailingZeros64(g.rng.Uint64() | 1<<20) // cap the shift
	if bits.Len(uint(g.cfg.SizeMin))+k >= bits.UintSize {
		return g.cfg.SizeMax // SizeMin<<k would pass the sign bit
	}
	return min(g.cfg.SizeMin<<k, g.cfg.SizeMax)
}

// Tick implements Generator: it emits at most one packet per cycle,
// round-robining across users that are mid-request or done thinking.
func (g *ClosedLoop) Tick(now noc.Cycle, queued int) *noc.Packet {
	// Expire responses past their deadline so lost packets cannot stall
	// the loop forever; the affected user goes back to thinking.
	for g.count > 0 && g.ring[g.head].deadline <= now {
		r := g.pop()
		g.awaiting[r.user] = false
		g.thinkUntil[r.user] = noc.SatAdd(now, g.drawThink())
		g.TimedOut++
	}
	for scanned := 0; scanned < len(g.thinkUntil); scanned++ {
		u := g.rr
		g.rr++
		if g.rr == len(g.thinkUntil) {
			g.rr = 0
		}
		if g.remaining[u] > 0 {
			return g.emit(u, now)
		}
		if !g.awaiting[u] && g.thinkUntil[u] <= now {
			size := g.drawSize()
			g.remaining[u] = size
			g.reqSize[u] = size
			g.Issued++
			return g.emit(u, now)
		}
	}
	return nil
}

// NextArrival implements Scheduler without drawing. While a user is
// mid-request or a request is in flight the flow is due at from, every
// cycle, as under polling. While every user thinks it is due when the
// first is done: Completed changes nothing with no request in flight,
// so no delivery can move that cycle.
func (g *ClosedLoop) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if g.count > 0 {
		return from, true
	}
	at := g.thinkUntil[0]
	for u, t := range g.thinkUntil {
		if g.remaining[u] > 0 {
			return from, true
		}
		at = min(at, t)
	}
	return max(at, from), true
}

// Emit implements Scheduler: the cycle's Tick, which may emit nothing.
func (g *ClosedLoop) Emit(now noc.Cycle) *noc.Packet { return g.Tick(now, 0) }

// emit sends one packet of user u's current request, registering the
// request as in flight when its last packet leaves.
func (g *ClosedLoop) emit(u int, now noc.Cycle) *noc.Packet {
	g.remaining[u]--
	if g.remaining[u] == 0 {
		g.push(clRequest{user: u, outstanding: g.reqSize[u], deadline: noc.SatAdd(now, g.cfg.Timeout)})
		g.awaiting[u] = true
	}
	return newPacket(g.seq, g.spec, now)
}

// Completed informs the source that packet p of its flow was delivered
// at p.DeliveredAt. The switch's owner wires this to the delivery hook;
// the credit goes to the oldest in-flight request, and completing it
// sends its user back to thinking. A packet numbered at or below the
// watermark is older than the source: it belongs to an earlier flow of
// the same (src, dst, class), retired and still draining, and credits
// nothing.
func (g *ClosedLoop) Completed(p *noc.Packet) {
	if g.count == 0 || p.ID <= g.watermark {
		return // a delivery that raced a timeout, or another flow's
	}
	now := p.DeliveredAt
	r := &g.ring[g.head]
	r.outstanding--
	if r.outstanding > 0 {
		return
	}
	u := r.user
	g.pop()
	g.awaiting[u] = false
	g.thinkUntil[u] = noc.SatAdd(now, g.drawThink())
	g.Done++
}

// InFlight returns the number of requests awaiting responses.
func (g *ClosedLoop) InFlight() int { return g.count }

func (g *ClosedLoop) push(r clRequest) {
	i := g.head + g.count
	if i >= len(g.ring) {
		i -= len(g.ring)
	}
	g.ring[i] = r
	g.count++
}

func (g *ClosedLoop) pop() clRequest {
	r := g.ring[g.head]
	g.head++
	if g.head == len(g.ring) {
		g.head = 0
	}
	g.count--
	return r
}
