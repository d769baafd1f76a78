// Package experiments reproduces every table and figure of the paper's
// evaluation (§4) plus the ablations called out in DESIGN.md. Each
// experiment is a pure function from an Options value to a result struct
// with a Table method, so the same code backs the ssvc-bench CLI and the
// repository's benchmarks.
package experiments

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// The two 95 % thresholds are this reproduction's own: the paper judges
// a GB flow only by §4.3's "within 2 %" (stats.GBTolerance), for one
// SSVC crosspoint over a whole run.
const (
	// heldShare is the share of its reservation a flow must receive over
	// the whole run to count as held where one SSVC switch is set beside
	// what it replaces: a Clos of SSVC switches (ComposeQoS), a mesh and
	// baseline arbiters (Motivation). Those tables contrast holding with
	// collapsing toward FIFO shares, far below either tolerance.
	heldShare = 0.95
	// recoveredShare is the share of its (recomputed) reservation a flow
	// must reach within one sampling window to count as converged
	// (Convergence) or recovered (Faults): a window is a few hundred
	// cycles, too short to hold to the whole-run 2 %.
	recoveredShare = 0.95
)

// Options controls simulation length and reproducibility. The zero value
// selects full-length runs; Quick shrinks them for fast benchmarks and CI.
type Options struct {
	// Cycles is the measurement window length after warmup.
	Cycles core.Cycle
	// Warmup is the number of cycles discarded before measuring.
	Warmup core.Cycle
	// Seed perturbs all workload RNG streams.
	Seed uint64
	// Workers bounds how many independent sweep points are simulated
	// concurrently. 0 selects GOMAXPROCS, 1 forces serial execution.
	// Every sweep point builds its own switch, generators, and
	// collector from (Seed, point index) alone, so rendered tables are
	// byte-identical at any worker count (see internal/runner). Each
	// engine runs one serial cycle; sweep points are the only
	// parallelism (DESIGN.md "No intra-run parallelism").
	Workers int
	// Pool, when set, is where the sweep points run instead of a
	// private pool of Workers goroutines: a caller that runs several
	// experiments at once gives each a pool of one shared runner.Budget
	// (see Budget) and calls the experiment from that pool's Go, so
	// Workers bounds all of them together. Like every worker count it
	// never changes results.
	Pool *runner.Pool
}

// Budget returns a processor budget of the options' Workers count, for
// a caller that shares one between experiments.
func (o Options) Budget() *runner.Budget { return runner.NewBudget(o.Workers) }

// Quick returns options for a fast, reduced-accuracy run.
func Quick() Options { return Options{Cycles: 20000, Warmup: 2000, Seed: 1} }

// Full returns options for a publication-length run.
func Full() Options { return Options{Cycles: 200000, Warmup: 20000, Seed: 1} }

func (o Options) withDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = 200000
	}
	if o.Warmup == 0 {
		o.Warmup = o.Cycles / 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o Options) total() core.Cycle { return o.Warmup + o.Cycles }

// fig4Radix and friends pin the paper's Figure 4 setup: 8 inputs, one
// output, 128-bit output channel, 8-flit packets, 16-flit buffers, GB
// traffic only, 4 significant auxVC bits.
const (
	fig4Radix     = 8
	fig4PacketLen = 8
	fig4BufFlits  = 16
	fig4SigBits   = 4
	counterBits   = 12

	// Figure 5 uses a 9-bit auxVC with 3 significant bits. The counter
	// width is the lever behind the halve/reset policies: a low-rate
	// flow's Vtick (800 cycles at a 1% allocation) then reaches the
	// counter ceiling within a single grant, so the Halve and Reset
	// policies fire often enough to keep the set of live thermometer
	// codes compressed, handing arbitration to the fair LRG tie-break.
	// With a much wider counter the policies almost never fire and all
	// three collapse onto the subtract behaviour (see EXPERIMENTS.md).
	fig5CounterBits = 9
	fig5SigBits     = 3
)

// Fig4Rates are the reserved fractions of the eight inputs in Figure 4:
// 40, 20, 10, 10, 5, 5, 5, 5 percent.
var Fig4Rates = []float64{0.40, 0.20, 0.10, 0.10, 0.05, 0.05, 0.05, 0.05}

func fig4Config() switchsim.Config {
	return switchsim.Config{
		Radix:         fig4Radix,
		BEBufferFlits: fig4BufFlits,
		GLBufferFlits: fig4BufFlits,
		GBBufferFlits: fig4BufFlits,
	}
}

// fig4SSVC is the Figure 4 arbiter geometry: a 12-bit auxVC with 4
// significant bits, subtract-real-time policy. core.FromFlows programs
// its Vticks from each run's flows.
var fig4SSVC = core.Config{Radix: fig4Radix, CounterBits: counterBits, SigBits: fig4SigBits}

// fig5SSVC is the Figure 5 geometry (9-bit auxVC, 3 significant bits)
// under one counter policy.
func fig5SSVC(policy core.CounterPolicy) core.Config {
	return core.Config{Radix: fig4Radix, CounterBits: fig5CounterBits, SigBits: fig5SigBits, Policy: policy}
}

// intoOutput0 is one GB flow per rate into output 0, the shape of every
// single-output comparison: input i reserves rates[i], in packets of
// packetLen flits.
func intoOutput0(packetLen int, rates ...float64) []noc.FlowSpec {
	specs := make([]noc.FlowSpec, len(rates))
	for i, r := range rates {
		specs[i] = noc.FlowSpec{Src: i, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: r, PacketLength: packetLen}
	}
	return specs
}

// uniform is n copies of rate.
func uniform(n int, rate float64) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = rate
	}
	return rates
}

// backlogged gives every spec a four-packet backlog, the saturating
// demand most experiments drive.
func backlogged(specs ...noc.FlowSpec) []traffic.Workload {
	ws := make([]traffic.Workload, len(specs))
	for i, s := range specs {
		ws[i] = traffic.Workload{Spec: s, Inject: traffic.Inject.Backlogged(4)}
	}
	return ws
}

// attach adds the workloads to an engine whose construction returned
// err, in order (traffic.Attach). Either failure comes back tagged with
// the package prefix: setup errors thread into Outcome.Err instead of
// panicking, because a setup panic inside a sweep worker would kill the
// whole pool (ssvc-lint's panicfreeze invariant).
func attach(e fabric.Engine, err error, seq *traffic.Sequence, ws []traffic.Workload) error {
	if err == nil {
		err = traffic.Attach(e, seq, ws...)
	}
	if err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// arbiters is one row's per-output arbiter constructor, or the error
// that kept core from building it.
type arbiters struct {
	build func(int) arb.Arbiter
	err   error
}

// family is core's constructor of family a on geometry cfg for specs
// (core.Arbitration.Arbiters): the arbiter as data.
func family(a core.Arbitration, cfg core.Config, specs []noc.FlowSpec) arbiters {
	build, err := a.Arbiters(cfg, specs)
	return arbiters{build, err}
}

// crossbar builds a switch of geometry cfg with a's arbiters.
func (a arbiters) crossbar(cfg switchsim.Config) (*switchsim.Switch, error) {
	if a.err != nil {
		return nil, a.err
	}
	return switchsim.New(cfg, a.build)
}

// scheme is one row of a crossbar comparison: its name and arbiters.
type scheme struct {
	name string
	arb  arbiters
}

// pool returns the worker pool for fanning independent sweep points:
// the caller's, or a private one of the options' Workers count.
func (o Options) pool() *runner.Pool {
	if o.Pool != nil {
		return o.Pool
	}
	return runner.New(o.Workers)
}

// engineErr surfaces a sick engine's terminal error: engines freeze
// with an error instead of panicking on internal invariant violations
// (see fabric.ErrorReporter), so one corrupted sweep point reports
// itself instead of killing the whole pool.
func engineErr(e fabric.Engine) error {
	if r, ok := e.(fabric.ErrorReporter); ok {
		return r.Err()
	}
	return nil
}

// run drives an engine for the options' whole run and returns its
// terminal error if the run froze early. observe, when non-nil, sees
// every delivery; delivered packets are recycled through seq, so the
// cycle loop stops allocating once the in-flight population peaks.
func run(e fabric.Engine, seq *traffic.Sequence, o Options, observe func(*noc.Packet)) error {
	if observe != nil {
		e.OnDeliver(observe)
	}
	e.OnRelease(seq.Recycle)
	e.Run(o.total())
	return engineErr(e)
}

// sweepScratch is per-worker reusable state for parallel sweeps: one
// statistics collector recycled across every sweep point its worker
// executes, so a long sweep allocates collector state once per worker
// rather than once per point.
type sweepScratch struct {
	col *stats.Collector
}

func newSweepScratch() *sweepScratch {
	return &sweepScratch{col: stats.NewCollector(0, 0)}
}

// runCollected runs an engine (crossbar, mesh, or composed network —
// anything implementing fabric.Engine) and returns the statistics of
// the options' measurement window, plus the engine's terminal error.
// The statistics are the scratch collector's: the caller must copy
// results out before its worker starts the next sweep point.
func (sc *sweepScratch) runCollected(e fabric.Engine, seq *traffic.Sequence, o Options) (*stats.Collector, error) {
	sc.col.Reset(o.Warmup, o.total())
	return sc.col, run(e, seq, o, sc.col.OnDeliver)
}

// row is one crossbar row: a switch of geometry cfg with a's arbiters,
// fed ws in order and run for the options' whole run on the scratch
// collector. It returns the measurement window's collector, the switch
// and the run's error; on a setup error (the arbiters, the switch or a
// workload refused) the collector and switch are nil and must not be
// read.
func (sc *sweepScratch) row(cfg switchsim.Config, a arbiters, ws []traffic.Workload, o Options) (*stats.Collector, *switchsim.Switch, error) {
	sw, err := a.crossbar(cfg)
	var seq traffic.Sequence
	if err := attach(sw, err, &seq, ws); err != nil {
		return nil, nil, err
	}
	col, err := sc.runCollected(sw, &seq, o)
	return col, sw, err
}
