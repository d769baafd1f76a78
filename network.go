package swizzleqos

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// Workloads are data: a flow's contract plus its injection process,
// shared with the experiments through internal/traffic. Construct
// injections with the Inject helpers: swizzleqos.Inject.Bernoulli(0.2, 1).
type (
	InjectionKind = traffic.InjectionKind
	Injection     = traffic.Injection
	Workload      = traffic.Workload
)

// Injection kinds; see internal/traffic for each generator family.
const (
	InjectBernoulli  = traffic.InjectBernoulli
	InjectBursty     = traffic.InjectBursty
	InjectPeriodic   = traffic.InjectPeriodic
	InjectBacklogged = traffic.InjectBacklogged
	InjectTrace      = traffic.InjectTrace
)

// Inject provides constructors for the Injection kinds.
var Inject = traffic.Inject

// FlowKey identifies a flow in a Report.
type FlowKey = stats.FlowKey

// FlowStats holds a flow's measured statistics.
type FlowStats = stats.FlowStats

// GBTolerance is the share of its reservation a GB flow must accept for
// its guarantee to hold: "within 2%" (§4.2, §4.3).
const GBTolerance = stats.GBTolerance

// Network is a QoS-enabled switch plus its attached workloads. It is not
// safe for concurrent use.
type Network struct {
	cfg Config
	sw  *switchsim.Switch
	col *stats.Collector
	seq traffic.Sequence

	onDeliver func(*Packet)
}

// New builds a network from a configuration and its workloads. The flow
// set is fixed at construction because SSVC's per-crosspoint Vtick
// registers are programmed from the reservations.
func New(cfg Config, workloads ...Workload) (*Network, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("swizzleqos: at least one workload is required")
	}
	specs := make([]noc.FlowSpec, len(workloads))
	enableGL := cfg.GL.Rate > 0
	for i, w := range workloads {
		if err := w.Spec.Validate(cfg.Radix); err != nil {
			return nil, err
		}
		specs[i] = w.Spec
		enableGL = enableGL || w.Spec.Class == noc.GuaranteedLatency
	}
	if err := cfg.fillDefaults(enableGL); err != nil {
		return nil, err
	}
	// §3.3: per output, the GB reservations plus the GL reservation must
	// fit within the channel. The lowest oversubscribed output is named.
	reserved := make([]float64, cfg.Radix)
	for _, s := range specs {
		if s.Class == noc.GuaranteedBandwidth {
			reserved[s.Dst] += s.Rate
		}
	}
	for out, sum := range reserved {
		if sum > 0 && sum+cfg.GL.Rate > 1 {
			return nil, fmt.Errorf("swizzleqos: output %d oversubscribed: GB reservations %.2f + GL %.2f exceed the channel",
				out, sum, cfg.GL.Rate)
		}
	}
	factory, err := cfg.arbFactory(specs)
	if err != nil {
		return nil, err
	}
	return newNetwork(cfg, factory, workloads)
}

// newNetwork is New's and NewPlanned's shared tail: the crossbar, its
// flows in workload order, and the delivery fan-out.
func newNetwork(cfg Config, newArb func(int) arb.Arbiter, workloads []Workload) (*Network, error) {
	sw, err := switchsim.New(switchsim.Config{
		Radix:          cfg.Radix,
		BEBufferFlits:  cfg.BEBufferFlits,
		GLBufferFlits:  cfg.GLBufferFlits,
		GBBufferFlits:  cfg.GBBufferFlits,
		PacketChaining: cfg.PacketChaining,
	}, newArb)
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, sw: sw}
	ws := append([]Workload(nil), workloads...)
	for i := range ws {
		ws[i].Inject.Seed++ // the library's streams start one past the caller's seed
	}
	if err := traffic.Attach(sw, &n.seq, ws...); err != nil {
		return nil, fmt.Errorf("swizzleqos: %w", err)
	}
	sw.OnDeliver(func(p *noc.Packet) {
		if n.col != nil {
			n.col.OnDeliver(p)
		}
		if n.onDeliver != nil {
			n.onDeliver(p)
		}
	})
	return n, nil
}

// Config returns the (default-filled) configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current simulation cycle.
func (n *Network) Now() Cycle { return n.sw.Now() }

// Err returns the terminal error that froze the underlying switch, or
// nil. A frozen network ignores further Run calls; statistics reflect
// only the cycles before the failure.
func (n *Network) Err() error { return n.sw.Err() }

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles Cycle) { n.sw.Run(cycles) }

// OnDeliver registers an observer called for every delivered packet.
func (n *Network) OnDeliver(fn func(*Packet)) { n.onDeliver = fn }

// StartMeasurement begins (or restarts) the statistics window at the
// current cycle, discarding anything recorded before.
func (n *Network) StartMeasurement() {
	n.col = stats.NewCollector(n.sw.Now(), 0)
}

// Report snapshots the measurement window, which keeps accumulating if
// the simulation continues (call Report again for an updated view). It
// returns nil if StartMeasurement was never called.
func (n *Network) Report() *Report {
	if n.col == nil {
		return nil
	}
	n.col.End = n.sw.Now()
	return &Report{col: n.col, radix: n.cfg.Radix}
}

// Report is a read view over one measurement window.
type Report struct {
	col   *stats.Collector
	radix int
}

// Window returns the measurement window length in cycles.
func (r *Report) Window() Cycle { return r.col.Window() }

// Flows returns the measured flow keys in deterministic order.
func (r *Report) Flows() []FlowKey { return r.col.Keys() }

// Flow returns one flow's statistics, or nil if it delivered nothing.
func (r *Report) Flow(k FlowKey) *FlowStats { return r.col.Flow(k) }

// Throughput returns a flow's accepted throughput in flits/cycle.
func (r *Report) Throughput(k FlowKey) float64 { return r.col.Throughput(k) }

// OutputThroughput returns an output port's accepted flits/cycle.
func (r *Report) OutputThroughput(dst int) float64 { return r.col.OutputThroughput(dst) }

// TotalPackets returns the packets delivered in the window.
func (r *Report) TotalPackets() uint64 { return r.col.TotalPackets() }

// Table renders the per-flow statistics as a fixed-width table.
func (r *Report) Table() string {
	t := stats.NewTable(
		fmt.Sprintf("per-flow statistics over %d cycles", r.Window()),
		"flow", "packets", "flits/cycle", "mean lat", "max lat", "mean wait", "max wait")
	for _, k := range r.col.Keys() {
		f := r.col.Flow(k)
		t.AddRow(k.String(), f.Packets,
			fmt.Sprintf("%.4f", r.col.Throughput(k)),
			fmt.Sprintf("%.1f", f.MeanLatency()),
			f.LatMax,
			fmt.Sprintf("%.1f", f.MeanWait()),
			f.WaitMax)
	}
	return t.String()
}

// Series samples per-flow throughput in fixed windows; see StartSeries.
type Series = stats.Series

// StartSeries attaches a time-series sampler with the given window length
// in cycles, recording per-flow accepted throughput from now on. It is
// independent of StartMeasurement and may run alongside it.
func (n *Network) StartSeries(windowCycles Cycle) *Series {
	s := stats.NewSeries(windowCycles)
	prev := n.onDeliver
	n.onDeliver = func(p *Packet) {
		s.OnDeliver(p)
		if prev != nil {
			prev(p)
		}
	}
	return s
}
