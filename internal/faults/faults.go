// Package faults is a deterministic, seed-driven fault-injection layer
// for the fabric engines. It models three fault kinds on top of the
// shared kernel in internal/fabric:
//
//   - Transient flit corruption on a link. A modeled CRC at the receiver
//     detects the corrupted packet, which is NACKed back onto the head of
//     its input queue (the existing PushFront preemption path), retried
//     under a bounded budget with exponential backoff in cycles, and
//     finally counted as dropped when the budget is exhausted. This is
//     the closed retransmission loop of Feedback Output Queuing applied
//     at the link level.
//
//   - Output-port stall for a cycle window: the port transmits nothing
//     and grants nothing while stalled (a transient brown-out — PLL
//     relock, downstream backpressure).
//
//   - Fail-stop of an input or output port for the rest of the run (a
//     dead link or node, as in the Tiny Tera port-fault model). Engines
//     flush packets parked toward a dead port and refuse new ones; the
//     crossbar additionally re-derives its SSVC Vticks so the failed
//     flows' reserved bandwidth is redistributed to surviving GB flows
//     (see Redistribute and core.SSVC.SetVticks).
//
// Every fault is an event with a cycle, so an engine walks one masked
// cycle with or without a schedule: BeginCycle fires the fail-stops and
// stall-window edges due and keeps the engine's dead and stalled port
// masks. A retried packet's backoff (HoldUntil) is the engine's to watch:
// its input re-derives its offer every cycle until the deadline.
//
// An Injector is owned by exactly one engine instance and consumes only
// its own RNG stream, so parallel sweeps stay byte-identical at any
// worker count.
package faults

import (
	"fmt"
	"math/bits"
	"sort"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// Default retry/backoff parameters (overridable via Config).
const (
	// DefaultMaxRetries is the retransmission budget per packet before a
	// corrupted packet is dropped.
	DefaultMaxRetries = 4
	// DefaultBackoffBase is the first retry delay in cycles; attempt k
	// waits Base<<(k-1) cycles, capped at DefaultBackoffCap.
	DefaultBackoffBase = 8
	// DefaultBackoffCap bounds the exponential backoff delay.
	DefaultBackoffCap = 512
)

// StallWindow stalls one output port for the half-open cycle interval
// [From, Until): while stalled the port neither transmits nor grants.
type StallWindow struct {
	Port  int
	From  noc.Cycle
	Until noc.Cycle
}

// FailStop kills one port at cycle At for the rest of the run. Input
// selects between the engine's input ports (sources) and output ports
// (channels). For the multi-hop engines ports are identified by their
// flattened id (router*portsPerRouter + port).
type FailStop struct {
	Input bool
	Port  int
	At    noc.Cycle
}

// Config is a complete, declarative fault schedule. The zero value
// injects nothing.
type Config struct {
	// Seed drives the corruption RNG stream. Independent of the
	// workload seeds: two engines with the same fault seed see the same
	// corruption decisions regardless of traffic.
	Seed uint64
	// CorruptProb is the per-arriving-packet probability that its CRC
	// check fails and it must be retransmitted. Zero disables corruption.
	CorruptProb float64
	// MaxRetries bounds retransmission attempts per packet
	// (DefaultMaxRetries if zero).
	MaxRetries int
	// BackoffBase is the first retry delay in cycles (DefaultBackoffBase
	// if zero); attempt k backs off BackoffBase<<(k-1) cycles.
	BackoffBase noc.Cycle
	// BackoffCap caps the backoff delay (DefaultBackoffCap if zero).
	BackoffCap noc.Cycle
	// Stalls lists output-port stall windows.
	Stalls []StallWindow
	// FailStops lists permanent port deaths.
	FailStops []FailStop
}

// Counters tallies injected faults and their outcomes.
type Counters struct {
	Corruptions     uint64 // CRC failures detected at a receiver
	Retransmissions uint64 // NACKed packets re-queued for retry
	Drops           uint64 // packets dropped after exhausting retries
	StallCycles     uint64 // output-cycles lost to stall windows
}

// Injector evaluates a Config cycle by cycle for one engine instance.
// Not safe for concurrent use, like the engines themselves.
type Injector struct {
	cfg  Config
	rng  *traffic.RNG
	rest []FailStop // pending fail-stops, sorted by At

	// edge is the next cycle a stall window opens or closes: the stall
	// mask changes there and only there.
	edge noc.Cycle
	// The engine's port masks BeginCycle keeps (see New).
	deadIn, deadOut, stalled []uint64

	// Counters is exported state; engines surface it via FaultTotals.
	Counters
}

// New returns an injector for the given schedule that keeps the engine's
// all-zero port masks: fail-stopped inputs, fail-stopped outputs and the
// outputs a stall window covers in the cycle of the last BeginCycle (an
// output halts while dead or stalled). Fail-stops fire in At order (ties
// in listed order).
func New(cfg Config, deadIn, deadOut, stalled []uint64) *Injector {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	rest := make([]FailStop, len(cfg.FailStops))
	copy(rest, cfg.FailStops)
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].At < rest[j].At })
	return &Injector{
		cfg:     cfg,
		rng:     traffic.NewRNG(cfg.Seed),
		rest:    rest,
		deadIn:  deadIn,
		deadOut: deadOut,
		stalled: stalled,
	}
}

// Config returns the schedule the injector was built from (with defaults
// filled in).
func (in *Injector) Config() Config { return in.cfg }

// Totals returns a copy of the fault counter block; a nil injector (no
// schedule) counts nothing.
func (in *Injector) Totals() Counters {
	if in == nil {
		return Counters{}
	}
	return in.Counters
}

// BeginCycle fires every fail-stop scheduled at or before now, marking
// the ports dead, re-derives the stall mask if a window edge has come,
// and counts one StallCycle per live stalled output. It returns the
// fail-stops that fired so the engine can flush state for them (buffers,
// in-flight transmissions, arbiter reservations); the slice aliases
// internal storage. The call allocates nothing.
func (in *Injector) BeginCycle(now noc.Cycle) []FailStop {
	n := 0
	for n < len(in.rest) && in.rest[n].At <= now {
		if f := in.rest[n]; f.Input {
			arb.MaskSet(in.deadIn, f.Port)
		} else {
			arb.MaskSet(in.deadOut, f.Port)
		}
		n++
	}
	if now >= in.edge {
		in.edge = arb.NeverTick
		arb.MaskZero(in.stalled)
		for _, w := range in.cfg.Stalls {
			switch {
			case w.From > now:
				in.edge = min(in.edge, w.From)
			case w.Until > now:
				arb.MaskSet(in.stalled, w.Port)
				in.edge = min(in.edge, w.Until)
			}
		}
	}
	for w, m := range in.stalled {
		in.StallCycles += uint64(bits.OnesCount64(m &^ in.deadOut[w]))
	}
	fired := in.rest[:n:n]
	in.rest = in.rest[n:]
	return fired
}

// AppendState appends the injector's state for a full-state snapshot
// (internal/ctlplane): the corruption RNG word, how many of the scheduled
// fail-stops have fired, and the counters. The masks follow from those and
// the cycle; the schedule itself is configuration.
func (in *Injector) AppendState(b []byte) []byte {
	b = in.rng.AppendState(b)
	b = wire.Int(b, len(in.cfg.FailStops)-len(in.rest))
	b = wire.Uint(b, in.Corruptions)
	b = wire.Uint(b, in.Retransmissions)
	b = wire.Uint(b, in.Drops)
	return wire.Uint(b, in.StallCycles)
}

// RestoreState reads what AppendState wrote into an injector New built
// from the same schedule, for an engine standing at the start of cycle
// now. The fired count is refused unless it is exactly the fail-stops due
// before now: BeginCycle has run for every earlier cycle and for none
// from now on.
func (in *Injector) RestoreState(r *wire.Reader, now noc.Cycle) error {
	in.rng.RestoreState(r)
	fired := r.Int(len(in.rest))
	c := Counters{Corruptions: r.Uint(), Retransmissions: r.Uint(), Drops: r.Uint(), StallCycles: r.Uint()}
	if err := r.Err(); err != nil {
		return err
	}
	if (fired > 0 && in.rest[fired-1].At >= now) || (fired < len(in.rest) && in.rest[fired].At < now) {
		return fmt.Errorf("faults: %d fail-stop(s) fired is not the schedule's count before cycle %d", fired, now.Uint())
	}
	if now > 0 {
		in.BeginCycle(now - 1) // fires exactly the fired ones
	}
	in.Counters = c
	return nil
}

// CorruptArrival rolls the CRC check for a packet whose last flit just
// arrived over a link, returning true when the packet is corrupted and
// must be NACKed. Consumes one RNG draw per call, so call order must be
// deterministic (it is: engines iterate ports in fixed order).
func (in *Injector) CorruptArrival(p *noc.Packet) bool {
	if in.cfg.CorruptProb <= 0 {
		return false
	}
	if !in.rng.Bernoulli(in.cfg.CorruptProb) {
		return false
	}
	in.Corruptions++
	return true
}

// Retry charges one retransmission attempt to a corrupted packet. If the
// budget allows, it stamps the packet's backoff deadline
// (now + BackoffBase<<(attempt-1), capped at BackoffCap), counts a
// retransmission, and returns true: the engine re-queues the packet at
// the head of its input buffer. Otherwise it counts a drop and returns
// false: the engine must discard the packet via Hooks.Drop.
func (in *Injector) Retry(now noc.Cycle, p *noc.Packet) bool {
	p.Retries++
	if p.Retries > in.cfg.MaxRetries {
		in.Drops++
		return false
	}
	delay := noc.SatShl(in.cfg.BackoffBase, uint(p.Retries-1))
	if delay > in.cfg.BackoffCap {
		delay = in.cfg.BackoffCap
	}
	p.HoldUntil = now + delay
	in.Retransmissions++
	return true
}

// Redistribute implements the graceful-degradation bandwidth rule: the
// reserved rate of every failed flow is released and shared among the
// surviving reserved flows in proportion to their own reservations, so
// the total reserved fraction of the output channel is preserved.
// rates[i] is flow i's reserved rate; failed reports whether flow i died.
// Flows with zero rate (best-effort) neither give nor take.
func Redistribute(rates []float64, failed func(i int) bool) []float64 {
	out := make([]float64, len(rates))
	freed := 0.0
	surviving := 0.0
	for i, r := range rates {
		if failed(i) {
			freed += r
			continue
		}
		surviving += r
	}
	if surviving <= 0 {
		return out // nothing left to absorb the freed bandwidth
	}
	scale := 1 + freed/surviving
	for i, r := range rates {
		if failed(i) {
			continue
		}
		out[i] = r * scale
	}
	return out
}

// Validate reports a descriptive error for schedules that reference
// ports outside [0, numIn) x [0, numOut) or malformed windows.
func (c Config) Validate(numIn, numOut int) error {
	if c.CorruptProb < 0 || c.CorruptProb > 1 {
		return fmt.Errorf("faults: corruption probability %g outside [0,1]", c.CorruptProb)
	}
	for _, w := range c.Stalls {
		if w.Port < 0 || w.Port >= numOut {
			return fmt.Errorf("faults: stall port %d out of range [0,%d)", w.Port, numOut)
		}
		if w.Until < w.From {
			return fmt.Errorf("faults: stall window [%d,%d) inverted", w.From, w.Until)
		}
	}
	for _, f := range c.FailStops {
		n := numOut
		if f.Input {
			n = numIn
		}
		if f.Port < 0 || f.Port >= n {
			return fmt.Errorf("faults: fail-stop port %d out of range [0,%d)", f.Port, n)
		}
	}
	return nil
}
