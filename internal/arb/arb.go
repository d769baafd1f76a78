// Package arb provides output-channel arbitration policies for a
// single-stage crossbar switch.
//
// Each output channel of the switch owns one Arbiter. Every cycle the
// channel is idle, the switch presents the set of inputs requesting that
// output and the arbiter picks at most one winner; the switch then notifies
// the arbiter of the grant so it can update its internal priority state.
//
// The package contains the baselines the paper evaluates against or
// discusses in its background section (§2.2):
//
//   - LRG: least-recently-granted, the Swizzle Switch's default best-effort
//     policy and the "No QoS" baseline of Figure 4(a).
//   - RoundRobin: classic rotating-priority arbitration.
//   - MultiLevel: the fixed-priority 4-level message QoS of the prior
//     Swizzle Switch work [14]; high levels can starve low levels.
//   - WRR / DWRR: static weighted schemes with strict bandwidth shares but
//     poor redistribution of leftover bandwidth.
//   - WFQ: weighted fair queueing emulating bit-by-bit round robin via
//     per-packet finish times.
//   - OrigVC: the original Virtual Clock algorithm [19] with exact
//     per-packet time stamps, the baseline curve of Figure 5.
//
// The paper's own mechanism, SSVC, lives in package core and implements the
// same Arbiter interface.
package arb

import (
	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

// Request describes one input port contending for an output channel in the
// current cycle. Packet is the head packet the input would transmit if
// granted. Input is a port number, below the switch's radix.
type Request struct {
	Input  int
	Class  noc.Class
	Packet *noc.Packet
}

// Arbiter selects a winner among inputs requesting a single output channel.
//
// Implementations are single-output: a radix-N switch instantiates N
// independent arbiters. They are not safe for concurrent use; the simulator
// drives them from a single goroutine, mirroring the synchronous hardware.
type Arbiter interface {
	// Arbitrate returns the index into reqs of the winning request, or -1
	// if no request can be granted this cycle (for example, all pending
	// guaranteed-latency traffic is being policed, or a fixed-schedule
	// slot is wasted). Arbitrate may advance internal schedule
	// bookkeeping (frame pointers, deficit refills) but must leave
	// grant-dependent priority updates to Granted. It is called at most
	// once per cycle. reqs holds at most one request per input, which is
	// what fabric.Offers builds: an input offers one packet at a time.
	Arbitrate(now noc.Cycle, reqs []Request) int

	// Granted commits the grant decided by Arbitrate, updating priority
	// state (LRG order, virtual clocks, deficit counters, ...).
	Granted(now noc.Cycle, req Request)

	// Tick advances clocked state such as the real-time clock used for
	// virtual clock maintenance. The engine calls it after arbitration, at
	// most once per cycle, and on every cycle at or after the deadline the
	// arbiter last announced through TickScheduler — every cycle if it
	// announces none. Calls ahead of the deadline may happen (an engine
	// keeps one deadline for many arbiters) and must be no-ops.
	Tick(now noc.Cycle)
}

// TickScheduler is the event-driven face of an arbiter's clock, as
// traffic.Scheduler is of a generator: an arbiter whose Tick does work
// only at known cycles announces the next one, and the engine skips the
// calls in between. NextTick returns the earliest cycle at which Tick
// does anything; the value may change only inside Tick, so an engine that
// reads it after each Tick never holds a stale deadline. NeverTick
// announces that Tick is a no-op for good.
type TickScheduler interface {
	NextTick() noc.Cycle
}

// NeverTick is the deadline of an arbiter with no clocked state.
const NeverTick = ^noc.Cycle(0)

// unclocked is embedded by the arbiters that keep no clocked state: it
// supplies their empty Tick and announces that it never needs calling.
type unclocked struct{}

// Tick implements Arbiter.
func (unclocked) Tick(now noc.Cycle) {}

// NextTick implements TickScheduler.
func (unclocked) NextTick() noc.Cycle { return NeverTick }

// Stateful is implemented by arbiters whose whole state can be carried in
// a snapshot (internal/ctlplane): AppendState appends it, and
// RestoreState, on an arbiter freshly built from the same configuration,
// reads it back at cycle now — the cycle the snapshot was taken, against
// which clocked state is validated. Configuration is never part of the
// state. RestoreState is a trust boundary: whatever the bytes say, an
// arbiter it accepts is one some run of grants and ticks could have left.
type Stateful interface {
	AppendState(b []byte) []byte
	RestoreState(r *wire.Reader, now noc.Cycle) error
}

// ArrivalObserver is implemented by arbiters that stamp packets on arrival
// at the input buffer rather than on transmission. The original Virtual
// Clock algorithm stamps "upon receiving each packet" (§2.2); the switch
// calls PacketArrived when a packet destined to this arbiter's output
// enters its input buffer.
type ArrivalObserver interface {
	PacketArrived(now noc.Cycle, pkt *noc.Packet)
}
