package switchsim

import (
	"fmt"
	"reflect"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// The tick-cadence differential: an engine that ticks its arbiters on
// their announced deadlines must be indistinguishable from the reference
// model (internal/spec), which ticks every arbiter every cycle.

type tickCase struct {
	policy core.CounterPolicy
	gl     bool
	mode   string // plain, faults, chaining, preemption
	seed   uint64 // offsets every traffic and fault seed; 0 is the original draw
}

func (tc tickCase) String() string {
	return fmt.Sprintf("%v/gl=%v/%s/seed%d", tc.policy, tc.gl, tc.mode, tc.seed)
}

// tickSeeds is the differential's seed axis: each seed is another arrival
// pattern, so another sequence of deadlines the two cadences must agree on.
var tickSeeds = []uint64{0, 1, 2, 3}

const tickRadix = 8

// tickVticks is the reservation table of one output: every input reserves
// a fifth of the channel in 4-flit packets.
func tickVticks(scale uint64) []core.VTime {
	vt := make([]core.VTime, tickRadix)
	for i := range vt {
		vt[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick() * noc.VTimeOf(scale)
	}
	return vt
}

// countTicks counts the Tick calls an SSVC receives and keeps its
// deadline face visible.
type countTicks struct {
	*core.SSVC
	n *int
}

func (c countTicks) Tick(now noc.Cycle) { *c.n++; c.SSVC.Tick(now) }

// ssvcState is an SSVC's state the two cadences must agree on:
// saturations, deadline, then aux, coarse and LRG rank per input.
func ssvcState(s *core.SSVC) []uint64 {
	st := []uint64{s.Saturations(), s.NextTick().Uint()}
	for i := 0; i < tickRadix; i++ {
		st = append(st, s.Aux(i).Uint(), uint64(s.Coarse(i)), uint64(s.LRG().Rank(i)))
	}
	return st
}

// tickRun is one tick case run in lock step: the run, each side's SSVCs
// in output order (engine first) and the Tick calls that reached the
// engine's SSVCs.
type tickRun struct {
	*lockStep
	ssvcs [2][]*core.SSVC
	ticks int
}

// runTickCase drives the engine and the model in lock step across a
// mid-run SetVticks and a late AddFlow. Odd outputs use a quantum twice
// as long as even ones, so the engine's deadline is a minimum over
// unequal announcements; under preemption the odd outputs run arb.PVC,
// which never needs a tick.
func runTickCase(t *testing.T, tc tickCase) *tickRun {
	t.Helper()
	run := &tickRun{}
	var seqs [2]*traffic.Sequence
	side := 0
	build := func(deliver func(*noc.Packet)) *rig {
		k := side
		side++
		seq := new(traffic.Sequence)
		seqs[k] = seq
		r := &rig{
			cfg: Config{
				Radix: tickRadix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16,
				PacketChaining: tc.mode == "chaining",
			},
			observe: deliver,
			release: seq.Recycle,
		}
		r.newArb = func(o int) arb.Arbiter {
			if tc.mode == "preemption" && o%2 == 1 {
				return arb.NewPVC(tickRadix, tickVticks(1), 10)
			}
			c := core.Config{
				Radix: tickRadix, CounterBits: 8 + o%2, SigBits: 3,
				Policy: tc.policy, Vticks: tickVticks(1),
			}
			if tc.gl {
				c.EnableGL, c.GLVtick, c.GLBurst = true, noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick(), 2
			}
			s := core.NewSSVC(c)
			run.ssvcs[k] = append(run.ssvcs[k], s)
			if k == 0 {
				return countTicks{s, &run.ticks}
			}
			return s
		}
		if tc.mode == "faults" {
			r.faults = &faults.Config{
				Seed:        7 + tc.seed,
				CorruptProb: 0.02,
				Stalls:      []faults.StallWindow{{Port: 3, From: 200, Until: 330}},
				FailStops:   []faults.FailStop{{Port: 6, At: 700}},
			}
		}
		for i := 0; i < tickRadix; i++ {
			// Three backlogged inputs overdrive output 0 so its counters
			// saturate; the rest spread Bernoulli GB and bursty BE load.
			if i < 3 {
				r.flows = append(r.flows, backloggedGB(seq, i, 0, 4, 0.2))
			} else {
				gb := noc.FlowSpec{Src: i, Dst: (i*5 + 1) % tickRadix, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
				r.flows = append(r.flows, traffic.Flow{Spec: gb, Gen: traffic.NewBernoulli(seq, gb, 0.3, 1000+uint64(i)+tc.seed<<32)})
			}
			be := noc.FlowSpec{Src: i, Dst: (i * 3) % tickRadix, Class: noc.BestEffort, PacketLength: 4}
			r.flows = append(r.flows, traffic.Flow{Spec: be, Gen: traffic.NewBursty(seq, be, 0.2, 3, 2000+uint64(i)+tc.seed<<32)})
			if tc.gl && i%4 == 1 {
				gl := noc.FlowSpec{Src: i, Dst: (i + 3) % tickRadix, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
				r.flows = append(r.flows, traffic.Flow{Spec: gl, Gen: traffic.NewPeriodic(seq, gl, 53, noc.Cycle(i))})
			}
		}
		return r
	}
	run.lockStep = newLockStep(t, build)

	// 1400 cycles cross 43 of the even outputs' 32-cycle quanta and 21 of
	// the odd outputs' 64-cycle ones.
	run.run(t, 450)
	for _, side := range run.ssvcs {
		for _, s := range side {
			if err := s.SetVticks(tickVticks(2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run.run(t, 350)
	late := noc.FlowSpec{Src: 5, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
	addFlow(t, run.ev, traffic.Flow{Spec: late, Gen: traffic.NewBernoulli(seqs[0], late, 0.4, 77+tc.seed<<32)})
	if err := run.ref.AddFlow(traffic.Flow{Spec: late, Gen: traffic.NewBernoulli(seqs[1], late, 0.4, 77+tc.seed<<32)}); err != nil {
		t.Fatal(err)
	}
	run.run(t, 600)
	run.finish(t)
	return run
}

func TestTickDeadlinesMatchEveryCycle(t *testing.T) {
	saturated := map[core.CounterPolicy]bool{}
	for _, policy := range []core.CounterPolicy{core.SubtractRealTime, core.Halve, core.Reset} {
		for _, gl := range []bool{false, true} {
			for _, mode := range []string{"plain", "faults", "chaining", "preemption"} {
				for _, seed := range tickSeeds {
					tc := tickCase{policy, gl, mode, seed}
					t.Run(tc.String(), func(t *testing.T) {
						r := runTickCase(t, tc)
						if n := len(r.traces[0]); n < 500 {
							t.Fatalf("only %d deliveries: the scenario is too quiet to tell the cadences apart", n)
						}
						var got, want [][]uint64
						for k, s := range r.ssvcs[0] {
							got, want = append(got, ssvcState(s)), append(want, ssvcState(r.ssvcs[1][k]))
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("arbiter state diverges:\n got %v\nwant %v", got, want)
						}
						if mode == "preemption" && r.ev.Preempted == 0 {
							t.Error("no preemption happened")
						}
						// The deadline run must actually skip: every SSVC ticks
						// once per 32-cycle quantum of the shortest clock in the
						// switch, not once per cycle.
						if max := len(got) * (1400/32 + 2); r.ticks > max {
							t.Errorf("%d SSVC ticks, want at most %d (one per quantum boundary)", r.ticks, max)
						}
						for _, st := range want {
							saturated[policy] = saturated[policy] || st[0] > 0
						}
					})
				}
			}
		}
	}
	for policy, fired := range saturated {
		if !fired && policy != core.SubtractRealTime {
			t.Errorf("%v never fired: the differential does not cover its counter path", policy)
		}
	}
}

// TestUnclockedArbitersNeverTick: a switch whose arbiters all announce
// "never" walks them once, on the first cycle, and an arbiter without the
// capability keeps the switch on the every-cycle cadence.
func TestUnclockedArbitersNeverTick(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hide  bool
		ticks int
	}{{"never", false, 1}, {"noCapability", true, 200}} {
		t.Run(tc.name, func(t *testing.T) {
			ticks := 0
			sw := mustNew(t, testConfig(), func(o int) arb.Arbiter {
				var a arb.Arbiter = arb.NewLRG(8)
				if o == 0 {
					a = countLRG{a.(*arb.LRG), &ticks}
				}
				if tc.hide && o == 7 {
					a = perCycle{a}
				}
				return a
			})
			var seq traffic.Sequence
			addFlow(t, sw, backloggedBE(&seq, 1, 0, 4))
			sw.Run(200)
			if ticks != tc.ticks {
				t.Fatalf("output 0 ticked %d times in 200 cycles, want %d", ticks, tc.ticks)
			}
		})
	}
}

// perCycle hides an arbiter's NextTick, so the engine finds no
// arb.TickScheduler behind it and is due again at now+1 for ever.
type perCycle struct{ arb.Arbiter }

type countLRG struct {
	*arb.LRG
	n *int
}

func (c countLRG) Tick(now noc.Cycle) { *c.n++; c.LRG.Tick(now) }
