// Package noc defines the shared network-on-chip domain types used across
// the simulator: traffic classes, packets, and flow specifications.
//
// The model follows the DAC 2014 paper "Quality-of-Service for a High-Radix
// Switch": a single-stage crossbar ("Swizzle Switch") connects Radix inputs
// to Radix outputs. A flow is a stream of packets from one input to one
// output in one traffic class. Packets are multi-flit; the output channel
// moves one flit per cycle.
package noc

import (
	"fmt"
	"math"
)

// Class is a traffic class, in increasing order of network priority.
type Class uint8

const (
	// BestEffort is the default class: no reservation, lowest priority,
	// least-recently-granted arbitration.
	BestEffort Class = iota
	// GuaranteedBandwidth flows reserve a fraction of an output channel's
	// bandwidth, enforced by the SSVC (Swizzle Switch Virtual Clock)
	// arbitration.
	GuaranteedBandwidth
	// GuaranteedLatency is for infrequent time-critical messages
	// (interrupts, watchdogs). It has absolute priority over the other
	// classes, a small shared bandwidth reservation, and an analytic
	// worst-case latency bound.
	GuaranteedLatency

	// NumClasses is the number of traffic classes.
	NumClasses = 3
)

// String returns the paper's abbreviation for the class (BE, GB, GL).
func (c Class) String() string {
	switch c {
	case BestEffort:
		return "BE"
	case GuaranteedBandwidth:
		return "GB"
	case GuaranteedLatency:
		return "GL"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Valid reports whether c is one of the three defined classes.
func (c Class) Valid() bool { return c < NumClasses }

// Packet is a multi-flit message traversing the switch. Timestamps are in
// cycles; a zero DeliveredAt means the packet is still in flight.
type Packet struct {
	ID     uint64
	Src    int   // input port
	Dst    int   // output port
	Class  Class // traffic class
	Length int   // length in flits (>= 1)

	// Stamp is the Virtual Clock time stamp assigned on arrival. It is
	// used only by the original Virtual Clock arbiter, which transmits
	// packets in increasing stamp order; SSVC keeps its state per
	// crosspoint instead.
	Stamp VTime

	CreatedAt   Cycle // cycle the source generated the packet
	EnqueuedAt  Cycle // cycle the packet entered the input buffer
	GrantedAt   Cycle // cycle switch arbitration granted the packet
	DeliveredAt Cycle // cycle the last flit left the output channel

	// Retries counts link-level retransmission attempts after a modeled
	// CRC failure (see internal/faults). Zero on a clean first delivery.
	Retries int
	// HoldUntil is the cycle before which a NACKed packet may not be
	// re-offered to arbitration (exponential backoff). Zero means the
	// packet is eligible immediately.
	HoldUntil Cycle
}

// TotalLatency is the cycles from generation to delivery of the last flit.
func (p *Packet) TotalLatency() Cycle { return SatSub(p.DeliveredAt, p.CreatedAt) }

// NetworkLatency is the cycles from entering the input buffer to delivery.
func (p *Packet) NetworkLatency() Cycle { return SatSub(p.DeliveredAt, p.EnqueuedAt) }

// WaitingTime is the cycles a packet waited at the switch before being
// granted, measured from input-buffer arrival. This is the quantity bounded
// by the paper's guaranteed-latency equation (Eq. 1).
func (p *Packet) WaitingTime() Cycle { return SatSub(p.GrantedAt, p.EnqueuedAt) }

// FlowSpec describes one flow's traffic contract.
type FlowSpec struct {
	Src   int
	Dst   int
	Class Class

	// Rate is the reserved fraction of the destination output channel's
	// bandwidth, in flits per cycle (0 < Rate <= 1). Only meaningful for
	// GuaranteedBandwidth and GuaranteedLatency flows; zero for
	// BestEffort.
	Rate float64

	// PacketLength is the flow's packet size in flits.
	PacketLength int
}

// Validate reports a descriptive error if the spec is malformed for a
// switch of the given radix.
func (f FlowSpec) Validate(radix int) error {
	if f.Src < 0 || f.Src >= radix {
		return fmt.Errorf("noc: flow src %d out of range [0,%d)", f.Src, radix)
	}
	if f.Dst < 0 || f.Dst >= radix {
		return fmt.Errorf("noc: flow dst %d out of range [0,%d)", f.Dst, radix)
	}
	if !f.Class.Valid() {
		return fmt.Errorf("noc: invalid class %d", f.Class)
	}
	if f.PacketLength < 1 {
		return fmt.Errorf("noc: packet length %d < 1", f.PacketLength)
	}
	switch f.Class {
	case BestEffort:
		if f.Rate != 0 {
			return fmt.Errorf("noc: best-effort flow cannot reserve rate %g", f.Rate)
		}
	default:
		if f.Rate <= 0 || f.Rate > 1 {
			return fmt.Errorf("noc: reserved rate %g outside (0,1]", f.Rate)
		}
	}
	return nil
}

// Vtick returns the flow's virtual clock increment in cycles: the average
// inter-packet time of a flow sending PacketLength-flit packets at its
// reserved rate. Transmitting one packet advances the flow's virtual clock
// by this amount (paper §2.2). A rate too small for the increment to fit
// 64 bits saturates at math.MaxUint64 on every architecture.
func (f FlowSpec) Vtick() VTime {
	if f.Rate <= 0 {
		return 0
	}
	v := float64(f.PacketLength) / f.Rate
	if v < 1 {
		v = 1
	}
	return VTimeOf(ClampUint64(v+0.5, math.MaxUint64))
}
