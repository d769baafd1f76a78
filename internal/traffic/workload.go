package traffic

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// InjectionKind names a workload generator family.
type InjectionKind int

const (
	// InjectBernoulli draws an independent injection decision each
	// cycle, offering Rate flits/cycle on average.
	InjectBernoulli InjectionKind = iota
	// InjectBursty is an on/off source: back-to-back packets in bursts
	// of MeanBurst packets on average, at a long-run load of Rate.
	InjectBursty
	// InjectPeriodic emits one packet every Interval cycles starting at
	// Offset.
	InjectPeriodic
	// InjectBacklogged keeps Depth packets queued at all times — an
	// infinite-demand source for saturation studies.
	InjectBacklogged
	// InjectTrace replays an explicit list of injection cycles.
	InjectTrace
)

// Injection describes how a flow's packets are generated. Construct
// values with the Inject helpers for readable call sites.
type Injection struct {
	Kind      InjectionKind
	Rate      float64     // Bernoulli, Bursty: offered flits/cycle
	MeanBurst float64     // Bursty: average packets per burst
	Interval  noc.Cycle   // Periodic
	Offset    noc.Cycle   // Periodic
	Depth     int         // Backlogged
	Times     []noc.Cycle // Trace
	Seed      uint64      // Bernoulli, Bursty
}

// injectors groups the Injection constructors; use the package-level
// Inject variable: Inject.Bernoulli(0.2, 1).
type injectors struct{}

// Inject provides constructors for the Injection kinds.
var Inject injectors

// Bernoulli offers rate flits/cycle with independent per-cycle draws.
func (injectors) Bernoulli(rate float64, seed uint64) Injection {
	return Injection{Kind: InjectBernoulli, Rate: rate, Seed: seed}
}

// Bursty offers rate flits/cycle in bursts of meanBurst packets.
func (injectors) Bursty(rate, meanBurst float64, seed uint64) Injection {
	return Injection{Kind: InjectBursty, Rate: rate, MeanBurst: meanBurst, Seed: seed}
}

// Periodic emits one packet every interval cycles, starting at offset.
func (injectors) Periodic(interval, offset noc.Cycle) Injection {
	return Injection{Kind: InjectPeriodic, Interval: interval, Offset: offset}
}

// Backlogged keeps depth packets queued at all times.
func (injectors) Backlogged(depth int) Injection {
	return Injection{Kind: InjectBacklogged, Depth: depth}
}

// Trace replays packets at the given (sorted) cycles.
func (injectors) Trace(times ...noc.Cycle) Injection {
	return Injection{Kind: InjectTrace, Times: times}
}

// Workload couples a flow's contract with its injection process: a flow
// as data, turned into a generator by Attach.
type Workload struct {
	Spec   noc.FlowSpec
	Inject Injection
}

// newGenerator builds w's packet generator on seq. An error names the
// flow.
func newGenerator(w Workload, seq *Sequence) (Generator, error) {
	in := w.Inject
	var err error
	switch in.Kind {
	case InjectBernoulli:
		if err = CheckBernoulli(w.Spec, in.Rate); err == nil {
			return NewBernoulli(seq, w.Spec, in.Rate, in.Seed), nil
		}
	case InjectBursty:
		if err = CheckBursty(in.Rate, in.MeanBurst); err == nil {
			return NewBursty(seq, w.Spec, in.Rate, in.MeanBurst, in.Seed), nil
		}
	case InjectPeriodic:
		return NewPeriodic(seq, w.Spec, in.Interval, in.Offset), nil
	case InjectBacklogged:
		return NewBacklogged(seq, w.Spec, in.Depth), nil
	case InjectTrace:
		return NewTrace(seq, w.Spec, in.Times), nil
	default:
		err = fmt.Errorf("traffic: unknown injection kind %d", int(in.Kind))
	}
	return nil, fmt.Errorf("flow %d->%d: %w", w.Spec.Src, w.Spec.Dst, err)
}

// Attach builds every workload's generator on seq and adds the flows to
// e — any engine — in slice order, returning the first error. The order
// is part of the packet stream: IDs come from seq in the order flows
// generate, and engines walk flows in the order they were added.
func Attach(e interface{ AddFlow(Flow) error }, seq *Sequence, ws ...Workload) error {
	for _, w := range ws {
		gen, err := newGenerator(w, seq)
		if err != nil {
			return err
		}
		if err := e.AddFlow(Flow{Spec: w.Spec, Gen: gen}); err != nil {
			return err
		}
	}
	return nil
}
