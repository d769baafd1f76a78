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

// vticksFor computes the per-input Vtick vector toward one output for a
// set of flow specs.
func vticksFor(radix int, specs []noc.FlowSpec, out int) []core.VTime {
	vt := make([]core.VTime, radix)
	for _, s := range specs {
		if s.Dst == out && s.Class == noc.GuaranteedBandwidth {
			vt[s.Src] = s.Vtick()
		}
	}
	return vt
}

// ssvcFactory builds per-output SSVC arbiters configured from the flow
// specs, with the default 12-bit counter.
func ssvcFactory(radix, sigBits int, policy core.CounterPolicy, specs []noc.FlowSpec) func(int) arb.Arbiter {
	return ssvcFactoryBits(radix, counterBits, sigBits, policy, specs)
}

// ssvcFactoryBits is ssvcFactory with an explicit auxVC counter width.
func ssvcFactoryBits(radix, ctrBits, sigBits int, policy core.CounterPolicy, specs []noc.FlowSpec) func(int) arb.Arbiter {
	return func(out int) arb.Arbiter {
		return core.NewSSVC(core.Config{
			Radix:       radix,
			CounterBits: ctrBits,
			SigBits:     sigBits,
			Policy:      policy,
			Vticks:      vticksFor(radix, specs, out),
		})
	}
}

// build accumulates engine-construction errors so experiment setup can
// stay linear while threading failures into Outcome.Err instead of
// panicking: the engines freeze sick on internal violations
// (fabric.ErrorReporter), and since a setup panic inside a sweep worker
// would kill the whole pool, setup follows the same discipline
// (ssvc-lint's panicfreeze invariant). Callers check err once, after
// the last construction step and before driving the engine.
type build struct{ err error }

// fail records the first error, tagged with the package prefix.
func (b *build) fail(err error) {
	if b.err == nil && err != nil {
		b.err = fmt.Errorf("experiments: %w", err)
	}
}

// sw constructs a crossbar, recording any error; on a prior or current
// failure the returned switch may be nil and must not be driven.
func (b *build) sw(cfg switchsim.Config, f func(int) arb.Arbiter) *switchsim.Switch {
	if b.err != nil {
		return nil
	}
	sw, err := switchsim.New(cfg, f)
	b.fail(err)
	return sw
}

// add attaches a flow to an engine built earlier; after any recorded
// failure it is a no-op, so construction code needs no per-call checks.
func (b *build) add(e fabric.Engine, f traffic.Flow) {
	if b.err != nil || e == nil {
		return
	}
	b.fail(e.AddFlow(f))
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

// runCollected drives a configured engine (crossbar, mesh, or composed
// network — anything implementing fabric.Engine) and returns the
// collected steady-state statistics, plus the engine's terminal error if
// the run froze early. Delivered packets are recycled through seq, so
// the cycle loop stops allocating once the in-flight population peaks.
func runCollected(e fabric.Engine, seq *traffic.Sequence, o Options) (*stats.Collector, error) {
	col := stats.NewCollector(o.Warmup, o.total())
	e.OnDeliver(col.OnDeliver)
	e.OnRelease(seq.Recycle)
	e.Run(o.total())
	return col, engineErr(e)
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

// runCollected drives an engine over the options' measurement window
// using the scratch collector, returning the engine's terminal error if
// the run froze early. The caller must copy results out of the returned
// collector before its worker starts the next sweep point.
func (sc *sweepScratch) runCollected(e fabric.Engine, seq *traffic.Sequence, o Options) (*stats.Collector, error) {
	sc.col.Reset(o.Warmup, o.total())
	e.OnDeliver(sc.col.OnDeliver)
	e.OnRelease(seq.Recycle)
	e.Run(o.total())
	return sc.col, engineErr(e)
}
