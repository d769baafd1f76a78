package core

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// Arbitration selects the output-arbiter family for a whole switch. The
// constants carry an Arb prefix because SSVC names the arbiter type.
type Arbitration int

const (
	// ArbSSVC is the paper's QoS arbitration (default).
	ArbSSVC Arbitration = iota
	// ArbLRG is the plain least-recently-granted Swizzle Switch — the
	// no-QoS baseline.
	ArbLRG
	// ArbRoundRobin is rotating-priority arbitration.
	ArbRoundRobin
	// ArbOriginalVirtualClock uses exact per-packet Virtual Clock stamps
	// (the Figure 5 baseline).
	ArbOriginalVirtualClock
	// ArbFixedPriority is the prior Swizzle Switch multi-level message QoS
	// [14]: strict class priority with no bandwidth regulation.
	ArbFixedPriority
)

// arbitrationNames are the family names, by Arbitration.
var arbitrationNames = []string{"SSVC", "LRG", "RoundRobin", "OriginalVirtualClock", "FixedPriority"}

// String returns the arbitration family name.
func (a Arbitration) String() string {
	if a >= 0 && int(a) < len(arbitrationNames) {
		return arbitrationNames[a]
	}
	return fmt.Sprintf("Arbitration(%d)", int(a))
}

// Arbiters returns family a's per-output arbiter constructor for a flow
// set. Every family takes its radix from cfg; ArbSSVC takes all of cfg
// and programs each output's Vticks from specs (FromFlows), and
// ArbOriginalVirtualClock stamps with the same Vticks. An SSVC geometry
// that Validate refuses is an error, as is an unknown family.
func (a Arbitration) Arbiters(cfg Config, specs []noc.FlowSpec) (func(out int) arb.Arbiter, error) {
	switch a {
	case ArbSSVC:
		// Validate reads the Vticks' length only, so output 0's
		// arbiter stands for every output's.
		c := cfg
		c.Vticks = Vticks(cfg.Radix, specs, 0)
		if err := c.Validate(); err != nil {
			return nil, err
		}
		return FromFlows(cfg, specs), nil
	case ArbLRG:
		return func(int) arb.Arbiter { return arb.NewLRG(cfg.Radix) }, nil
	case ArbRoundRobin:
		return func(int) arb.Arbiter { return arb.NewRoundRobin(cfg.Radix) }, nil
	case ArbOriginalVirtualClock:
		return func(out int) arb.Arbiter { return arb.NewOrigVC(cfg.Radix, Vticks(cfg.Radix, specs, out)) }, nil
	case ArbFixedPriority:
		return func(int) arb.Arbiter { return arb.NewMultiLevel(cfg.Radix, nil) }, nil
	}
	return nil, fmt.Errorf("core: unknown arbitration family %d", int(a))
}
