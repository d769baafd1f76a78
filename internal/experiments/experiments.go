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

// crossbar builds a crossbar and attaches the workloads to it; on an
// error the switch must not be driven.
func crossbar(cfg switchsim.Config, newArb func(int) arb.Arbiter, seq *traffic.Sequence, ws []traffic.Workload) (*switchsim.Switch, error) {
	sw, err := switchsim.New(cfg, newArb)
	return sw, attach(sw, err, seq, ws)
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

// runCollected runs an engine (crossbar, mesh, or composed network —
// anything implementing fabric.Engine) and returns the statistics of
// the options' measurement window, plus the engine's terminal error.
func runCollected(e fabric.Engine, seq *traffic.Sequence, o Options) (*stats.Collector, error) {
	col := stats.NewCollector(o.Warmup, o.total())
	return col, run(e, seq, o, col.OnDeliver)
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

// runCollected is runCollected on the scratch collector. The caller
// must copy results out of the returned collector before its worker
// starts the next sweep point.
func (sc *sweepScratch) runCollected(e fabric.Engine, seq *traffic.Sequence, o Options) (*stats.Collector, error) {
	sc.col.Reset(o.Warmup, o.total())
	return sc.col, run(e, seq, o, sc.col.OnDeliver)
}
