package experiments

import (
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/glbound"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// faultGBRates are the reserved fractions of the six GB inputs in the
// fault experiment. Input 1 (20%) is the one that fail-stops; after
// redistribution the survivors' reservations total 80% of the channel.
var faultGBRates = []float64{0.30, 0.20, 0.10, 0.10, 0.05, 0.05}

const (
	// faultFailedInput is the GB input that fail-stops mid-run.
	faultFailedInput = 1
	// faultGLInput sends a short periodic GL packet; faultBEInput is a
	// saturated best-effort background flow.
	faultGLInput = 6
	faultBEInput = 7
	faultGLLen   = 4
	faultGLEvery = 100 // one GL packet per 100 cycles => 4% of the channel
	// faultCorruptProb is the per-packet modeled-CRC failure probability;
	// low enough that retries stay within budget, high enough that every
	// run exercises the NACK/retransmit path.
	faultCorruptProb = 0.002
	// faultSeriesWindow is the throughput-sampling window used to locate
	// the recovery point after the fail-stop.
	faultSeriesWindow = 100
)

// FaultOutcome is one counter policy's behaviour under the fault
// schedule: a 200-cycle output stall, low-rate flit corruption across
// the whole run, and a fail-stop of GB input 1 at 40% of the run.
type FaultOutcome struct {
	Policy string
	// Recomputed holds the per-input GB reservations after the fail-stop
	// redistribution (failed input zero, survivors scaled up).
	Recomputed []float64
	// Min guarantee-adherence ratio (accepted/reserved) across GB flows,
	// judged against the reservations in force during each phase:
	// original rates before the fail-stop, recomputed rates during the
	// settle window and after it.
	BeforeMinAdherence float64
	DuringMinAdherence float64
	AfterMinAdherence  float64
	// RecoveryCycles is how long after the fail-stop every surviving GB
	// flow first reaches 95% of its recomputed reservation within one
	// sampling window; -1 if one never does.
	RecoveryCycles int64
	// GL judges the GL flow's waits after the settle window against the
	// Eq. 1 bound recomputed for the degraded switch plus the worst-case
	// retransmission penalty (see faultGLRetryPenalty).
	GL     stats.Verdict
	Faults faults.Counters
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// FaultSchedule reports the cycle layout the experiment injects for the
// given options: the output-stall window, the fail-stop cycle, and the
// end of the settle phase. Exposed so tests and EXPERIMENTS.md agree
// with the implementation.
func FaultSchedule(o Options) (stallFrom, stallUntil, failAt, settledAt core.Cycle) {
	o = o.withDefaults()
	stallFrom = o.Warmup + o.Cycles/5
	stallUntil = stallFrom + 200
	failAt = o.Warmup + 2*o.Cycles/5
	settledAt = failAt + o.Cycles/5
	return
}

// Faults measures graceful QoS degradation under injected faults for the
// three SSVC counter policies. Six GB flows (30/20/10/10/5/5%), one
// periodic GL flow, and a saturated BE flow share output 0 of a radix-8
// switch while the injector corrupts ~0.2% of packets (exercising the
// NACK/retry/backoff path), stalls the output for 200 cycles, and
// fail-stops GB input 1 at 40% of the run. The fail-stop hook re-derives
// the SSVC Vticks so the dead flow's 20% is redistributed to the
// surviving GB flows in proportion to their reservations — the software
// analogue of rewriting the crosspoint reservation registers — and the
// GL waiting bound (Eq. 1) is recomputed for the degraded switch.
// Guarantee adherence is judged separately before, during, and after a
// settle window so the dip and the recovery are both visible. Each
// policy is an independent simulation with a derived fault seed, so the
// rendered table is byte-identical at any worker count.
func Faults(o Options) []FaultOutcome {
	o = o.withDefaults()
	policies := []struct {
		name   string
		policy core.CounterPolicy
	}{
		{"SubtractRealClock", core.SubtractRealTime},
		{"DivideBy2", core.Halve},
		{"Reset", core.Reset},
	}
	return runner.Map(o.pool(), len(policies), func(i int) FaultOutcome {
		return faultRun(policies[i].name, policies[i].policy, runner.DeriveSeed(o.Seed, i), o)
	})
}

func faultRun(name string, policy core.CounterPolicy, faultSeed uint64, o Options) FaultOutcome {
	stallFrom, stallUntil, failAt, settledAt := FaultSchedule(o)

	rates := make([]float64, fig4Radix) // indexed by input; GL/BE stay 0
	copy(rates, faultGBRates)
	specs := make([]noc.FlowSpec, 0, fig4Radix)
	for i, r := range faultGBRates {
		specs = append(specs, noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedBandwidth,
			Rate:         r,
			PacketLength: fig4PacketLen,
		})
	}
	glSpec := noc.FlowSpec{
		Src: faultGLInput, Dst: 0,
		Class:        noc.GuaranteedLatency,
		Rate:         float64(faultGLLen) / float64(faultGLEvery),
		PacketLength: faultGLLen,
	}
	beSpec := noc.FlowSpec{
		Src: faultBEInput, Dst: 0,
		Class:        noc.BestEffort,
		PacketLength: fig4PacketLen,
	}

	arbCfg := fig5SSVC(policy)
	arbCfg.EnableGL, arbCfg.GLVtick, arbCfg.GLBurst = true, glSpec.Vtick(), 2
	sw, err := switchsim.New(fig4Config(), core.FromFlows(arbCfg, specs))
	if err == nil {
		err = sw.SetFaults(faults.Config{
			Seed:        faultSeed,
			CorruptProb: faultCorruptProb,
			Stalls:      []faults.StallWindow{{Port: 0, From: stallFrom, Until: stallUntil}},
			FailStops:   []faults.FailStop{{Input: true, Port: faultFailedInput, At: failAt}},
		})
	}
	var seq traffic.Sequence
	ws := append(backlogged(specs...),
		traffic.Workload{Spec: glSpec, Inject: traffic.Inject.Periodic(faultGLEvery, 13)},
		traffic.Workload{Spec: beSpec, Inject: traffic.Inject.Backlogged(4)})
	if err := attach(sw, err, &seq, ws); err != nil {
		return FaultOutcome{Policy: name, RecoveryCycles: -1, Err: err}
	}

	oc := FaultOutcome{Policy: name, RecoveryCycles: -1}
	// refitErr records a mid-run Vtick redistribution failure; it cannot
	// stop the simulation from inside the fail-stop hook, so it surfaces
	// through oc.Err after the run.
	var refitErr error
	failed := make([]bool, fig4Radix)
	// survivors are the GB specs at their recomputed reservations.
	var survivors []noc.FlowSpec
	sw.OnFailStop(func(now noc.Cycle, f faults.FailStop) {
		if !f.Input {
			return
		}
		failed[f.Port] = true
		oc.Recomputed = faults.Redistribute(rates, func(i int) bool { return failed[i] })
		survivors = make([]noc.FlowSpec, 0, len(oc.Recomputed))
		for i, r := range oc.Recomputed {
			if r > 0 {
				survivors = append(survivors, noc.FlowSpec{
					Src: i, Dst: 0,
					Class:        noc.GuaranteedBandwidth,
					Rate:         r,
					PacketLength: fig4PacketLen,
				})
			}
		}
		if err := sw.Arbiter(0).(*core.SSVC).SetVticks(core.Vticks(fig4Radix, survivors, 0)); err != nil && refitErr == nil {
			refitErr = fmt.Errorf("experiments: %w", err)
		}
	})

	phases := stats.NewWindowed(o.Warmup, failAt, settledAt, o.total())
	series := stats.NewSeries(faultSeriesWindow)
	oc.Err = run(sw, &seq, o, func(p *noc.Packet) {
		phases.OnDeliver(p)
		series.OnDeliver(p)
	})
	if oc.Err == nil {
		oc.Err = refitErr
	}
	oc.Faults = sw.FaultTotals()

	oc.BeforeMinAdherence = phases.Phase(0).GB(specs).Worst
	oc.DuringMinAdherence = phases.Phase(1).GB(survivors).Worst
	oc.AfterMinAdherence = phases.Phase(2).GB(survivors).Worst

	// Recovery: the first sampling window at/after the fail-stop where
	// every surviving GB flow holds 95% of its recomputed reservation.
	failWin := int((failAt / faultSeriesWindow).Uint())
	worstWin := failWin
	for _, s := range survivors {
		hit := series.FirstWindowAtLeast(stats.SpecKey(s), failWin, recoveredShare*s.Rate)
		if hit < 0 {
			worstWin = -1
			break
		}
		if hit > worstWin {
			worstWin = hit
		}
	}
	if worstWin >= 0 {
		oc.RecoveryCycles = int64(worstWin-failWin) * faultSeriesWindow
	}

	// Post-fault GL bound: no GL input failed, but the bound is
	// recomputed through the same degraded-mode path a GL fail-stop
	// would take.
	glFailed := 0
	if failed[faultGLInput] {
		glFailed = 1
	}
	params := glbound.Params{
		LMax: fig4PacketLen, LMin: faultGLLen,
		NGL: 1, BufferFlits: fig4BufFlits,
	}
	var bound float64
	if degraded, err := params.Degrade(glFailed); err == nil {
		bound = degraded.MaxWait() + faultGLRetryPenalty(glSpec.Vtick())
	}
	oc.GL = phases.Phase(2).GL(bound, glSpec)
	return oc
}

// faultGLRetryPenalty bounds the extra waiting a GL packet can accrue
// from modeled-CRC retransmissions, which Eq. 1 does not cover: each of
// the allowed retries wastes at most one full transfer of the corrupted
// attempt (lmax cycles of channel time), its exponential backoff hold,
// and one glVtick for the GL leaky bucket to re-credit the lane (the
// first grant consumed the packet's credit).
func faultGLRetryPenalty(glVtick core.VTime) float64 {
	var penalty uint64
	for r := 0; r < faults.DefaultMaxRetries; r++ {
		backoff := uint64(faults.DefaultBackoffBase) << r
		if backoff > faults.DefaultBackoffCap {
			backoff = faults.DefaultBackoffCap
		}
		penalty += uint64(fig4PacketLen) + backoff + glVtick.Uint()
	}
	return float64(penalty)
}

// FaultsTable renders the degradation sweep, one row per counter policy.
func FaultsTable(outcomes []FaultOutcome) *stats.Table {
	t := stats.NewTable(
		"Fault injection: GB adherence across fault phases, recovery, and the degraded GL bound (stall + corruption + input fail-stop)",
		"policy", "GB adh before", "during", "after", "recovery(cyc)", "GL wait max", "GL bound", "held?", "corrupt", "retx", "drops")
	for _, oc := range outcomes {
		rec := fmt.Sprint(oc.RecoveryCycles)
		if oc.RecoveryCycles < 0 {
			rec = "never"
		}
		t.AddRow(oc.Policy,
			fmt.Sprintf("%.3f", oc.BeforeMinAdherence),
			fmt.Sprintf("%.3f", oc.DuringMinAdherence),
			fmt.Sprintf("%.3f", oc.AfterMinAdherence),
			rec, fmt.Sprintf("%.0f", oc.GL.Worst), fmt.Sprintf("%.0f", oc.GL.Bound), oc.Err == nil && oc.GL.Holds(),
			oc.Faults.Corruptions, oc.Faults.Retransmissions, oc.Faults.Drops)
	}
	return t
}
