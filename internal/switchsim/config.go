// Package switchsim is a cycle-accurate simulator of a single-stage,
// high-radix crossbar switch (the Swizzle Switch) with per-class input
// buffering and pluggable output arbitration.
//
// Model summary (matching §3-§4 of the paper):
//
//   - Radix inputs and Radix outputs; each input holds a best-effort FIFO,
//     a guaranteed-latency FIFO, and one guaranteed-bandwidth virtual
//     output queue per output, all with flit-granular capacity.
//   - An input transmits at most one packet at a time (its input channel
//     is a single physical link) and requests at most one output per
//     cycle, chosen by class priority GL > GB > BE and round-robin across
//     GB queues.
//   - An idle output channel spends one full cycle on arbitration before
//     data flows, so a stream of L-flit packets tops out at L/(L+1)
//     flits/cycle — the 0.89 ceiling of Figure 4 for 8-flit packets.
//     Optional packet chaining [10] lets a queued packet at the winning
//     crosspoint reuse the channel without a fresh arbitration cycle.
//   - Sources are open loop: generators append to unbounded source
//     queues, and packets enter the (finite) input buffers as space
//     allows, at most one packet per input per cycle.
package switchsim

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// Config describes the switch geometry and buffering.
type Config struct {
	// Radix is the number of input and output ports (the paper
	// demonstrates up to 64).
	Radix int

	// BEBufferFlits is the best-effort FIFO capacity per input, in flits.
	BEBufferFlits int
	// GLBufferFlits is the guaranteed-latency FIFO capacity per input —
	// the buffer depth b in the latency-bound equation (Eq. 1).
	GLBufferFlits int
	// GBBufferFlits is the capacity of each guaranteed-bandwidth virtual
	// output queue (one per output at every input), in flits.
	GBBufferFlits int

	// PacketChaining enables the overlapped arbitration of [10]
	// (§4.2): the arbitration for the channel's next packet runs under
	// the current packet's final data flit, so back-to-back packets
	// elide the dedicated arbitration cycle. All requesters compete
	// through the normal arbiter, so class priority and reservations
	// are unaffected — chaining buys throughput, never ordering.
	PacketChaining bool

	// Shards is a stub kept for the benchmark harness under bench/, which
	// sets it: the switch runs one serial cycle (DESIGN.md "No intra-run
	// parallelism"), so Validate accepts 0 and 1 and refuses anything
	// else. It goes when the harness stops setting it.
	Shards int

	// AdmissionGate, when non-nil, is consulted before a packet moves
	// from its source queue into the input buffer; returning false
	// leaves the packet queued at the source. Source-throttling QoS
	// schemes such as Globally Synchronized Frames regulate injection
	// here rather than at the switch arbiter. The gate may stamp the
	// packet (e.g. with a frame number) when it admits it.
	AdmissionGate func(now noc.Cycle, p *noc.Packet) bool
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Radix < 2 {
		return fmt.Errorf("switchsim: radix %d must be at least 2", c.Radix)
	}
	if c.BEBufferFlits < 0 || c.GLBufferFlits < 0 || c.GBBufferFlits < 0 {
		return fmt.Errorf("switchsim: buffer capacities must be non-negative (BE=%d GL=%d GB=%d)",
			c.BEBufferFlits, c.GLBufferFlits, c.GBBufferFlits)
	}
	if c.BEBufferFlits == 0 && c.GLBufferFlits == 0 && c.GBBufferFlits == 0 {
		return fmt.Errorf("switchsim: all buffers have zero capacity; no traffic can enter the switch")
	}
	if c.Shards < 0 || c.Shards > 1 {
		return fmt.Errorf("switchsim: Shards %d: the switch runs one serial cycle, so Shards must be 0 or 1", c.Shards)
	}
	return nil
}
