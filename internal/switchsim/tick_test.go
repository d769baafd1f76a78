package switchsim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// The tick-cadence differential: an engine that ticks its arbiters on
// their announced deadlines must be indistinguishable from one that
// ticks them every cycle. The every-cycle cadence exists only here, as
// the oracle: perCycle hides an arbiter's NextTick, so the engine finds no
// arb.TickScheduler behind it and is due again at now+1 for ever.

// perCycle forwards exactly the three arb.Arbiter methods.
type perCycle struct{ arb.Arbiter }

// perCyclePre is perCycle for an arbiter that also preempts and observes
// arrivals (arb.PVC), which the engine must still see.
type perCyclePre struct {
	arb.Arbiter
	arb.Preemptor
	arb.ArrivalObserver
}

func hideClock(a arb.Arbiter) arb.Arbiter {
	if p, ok := a.(arb.Preemptor); ok {
		return perCyclePre{a, p, a.(arb.ArrivalObserver)}
	}
	return perCycle{a}
}

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

// tickOutcome is everything the two cadences must agree on.
type tickOutcome struct {
	deliveries uint64 // FNV-1a over the ordered delivery trace
	delivered  int
	sw         Switch
	arbiters   [][]uint64 // per SSVC output: saturations, deadline, then aux, coarse and LRG rank per input
	ticks      int        // Tick calls that reached an SSVC (counted by the deadline run only)
}

// countTicks counts the Tick calls an SSVC receives and keeps its
// deadline face visible. Each arbiter has a counter of its own.
type countTicks struct {
	*core.SSVC
	n *int
}

func (c countTicks) Tick(now noc.Cycle) { *c.n++; c.SSVC.Tick(now) }

// runTickCase builds one switch, drives it across a mid-run SetVticks
// and a late AddFlow, and reports the outcome. Odd outputs use a quantum
// twice as long as even ones, so the switch's deadline is a minimum over
// unequal announcements; under preemption the odd outputs run arb.PVC,
// which never needs a tick.
func runTickCase(t *testing.T, tc tickCase, oracle bool) tickOutcome {
	t.Helper()
	var out tickOutcome
	cfg := Config{
		Radix: tickRadix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16,
		PacketChaining: tc.mode == "chaining", Preemption: tc.mode == "preemption",
	}
	var ssvcs []*core.SSVC
	var ticks []*int
	sw := mustNew(t, cfg, func(o int) arb.Arbiter {
		if tc.mode == "preemption" && o%2 == 1 {
			a := arb.Arbiter(arb.NewPVC(tickRadix, tickVticks(1), 10))
			if oracle {
				a = hideClock(a)
			}
			return a
		}
		c := core.Config{
			Radix: tickRadix, CounterBits: 8 + o%2, SigBits: 3,
			Policy: tc.policy, Vticks: tickVticks(1),
		}
		if tc.gl {
			c.EnableGL, c.GLVtick, c.GLBurst = true, noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick(), 2
		}
		s := core.NewSSVC(c)
		ssvcs = append(ssvcs, s)
		if oracle {
			return hideClock(s)
		}
		n := new(int)
		ticks = append(ticks, n)
		return countTicks{s, n}
	})
	if tc.mode == "faults" {
		if err := sw.SetFaults(faults.Config{
			Seed:        7 + tc.seed,
			CorruptProb: 0.02,
			Stalls:      []faults.StallWindow{{Port: 3, From: 200, Until: 330}},
			FailStops:   []faults.FailStop{{Port: 6, At: 700}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var seq traffic.Sequence
	for i := 0; i < tickRadix; i++ {
		// Three backlogged inputs overdrive output 0 so its counters
		// saturate; the rest spread Bernoulli GB and bursty BE load.
		if i < 3 {
			addFlow(t, sw, backloggedGB(&seq, i, 0, 4, 0.2))
		} else {
			gb := noc.FlowSpec{Src: i, Dst: (i*5 + 1) % tickRadix, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
			addFlow(t, sw, traffic.Flow{Spec: gb, Gen: traffic.NewBernoulli(&seq, gb, 0.3, 1000+uint64(i)+tc.seed<<32)})
		}
		be := noc.FlowSpec{Src: i, Dst: (i * 3) % tickRadix, Class: noc.BestEffort, PacketLength: 4}
		addFlow(t, sw, traffic.Flow{Spec: be, Gen: traffic.NewBursty(&seq, be, 0.2, 3, 2000+uint64(i)+tc.seed<<32)})
		if tc.gl && i%4 == 1 {
			gl := noc.FlowSpec{Src: i, Dst: (i + 3) % tickRadix, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
			addFlow(t, sw, traffic.Flow{Spec: gl, Gen: traffic.NewPeriodic(&seq, gl, 53, noc.Cycle(i))})
		}
	}
	h := fnv.New64a()
	sw.OnDeliver(func(p *noc.Packet) {
		out.delivered++
		fmt.Fprintln(h, p.ID, p.Src, p.Dst, p.Class, p.Length, p.CreatedAt, p.EnqueuedAt, p.GrantedAt, p.DeliveredAt)
	})
	sw.OnRelease(seq.Recycle)

	// 1400 cycles cross 43 of the even outputs' 32-cycle quanta and 21 of
	// the odd outputs' 64-cycle ones.
	sw.Run(450)
	for _, s := range ssvcs {
		if err := s.SetVticks(tickVticks(2)); err != nil {
			t.Fatal(err)
		}
	}
	sw.Run(350)
	late := noc.FlowSpec{Src: 5, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
	addFlow(t, sw, traffic.Flow{Spec: late, Gen: traffic.NewBernoulli(&seq, late, 0.4, 77+tc.seed<<32)})
	sw.Run(600)
	if err := sw.Err(); err != nil {
		t.Fatalf("%v: engine froze: %v", tc, err)
	}

	out.deliveries = h.Sum64()
	for _, n := range ticks {
		out.ticks += *n
	}
	out.sw = *sw
	for _, s := range ssvcs {
		st := []uint64{s.Saturations(), s.NextTick().Uint()}
		for i := 0; i < tickRadix; i++ {
			st = append(st, s.Aux(i).Uint(), uint64(s.Coarse(i)), uint64(s.LRG().Rank(i)))
		}
		out.arbiters = append(out.arbiters, st)
	}
	return out
}

func TestTickDeadlinesMatchEveryCycle(t *testing.T) {
	saturated := map[core.CounterPolicy]bool{}
	for _, policy := range []core.CounterPolicy{core.SubtractRealTime, core.Halve, core.Reset} {
		for _, gl := range []bool{false, true} {
			for _, mode := range []string{"plain", "faults", "chaining", "preemption"} {
				for _, seed := range tickSeeds {
					tc := tickCase{policy, gl, mode, seed}
					t.Run(tc.String(), func(t *testing.T) {
						want := runTickCase(t, tc, true)
						got := runTickCase(t, tc, false)
						if want.delivered < 500 {
							t.Fatalf("only %d deliveries: the scenario is too quiet to tell the cadences apart", want.delivered)
						}
						if got.deliveries != want.deliveries || got.delivered != want.delivered {
							t.Errorf("delivery trace diverges: %d packets hash %#x, every-cycle oracle %d packets hash %#x",
								got.delivered, got.deliveries, want.delivered, want.deliveries)
						}
						if got.sw.Totals() != want.sw.Totals() {
							t.Errorf("counters diverge:\n got %+v\nwant %+v", got.sw.Totals(), want.sw.Totals())
						}
						if got.sw.Chained != want.sw.Chained || got.sw.Preempted != want.sw.Preempted || got.sw.WastedFlits != want.sw.WastedFlits {
							t.Errorf("crossbar counters diverge: chained %d/%d preempted %d/%d wasted %d/%d",
								got.sw.Chained, want.sw.Chained, got.sw.Preempted, want.sw.Preempted, got.sw.WastedFlits, want.sw.WastedFlits)
						}
						if !reflect.DeepEqual(got.arbiters, want.arbiters) {
							t.Errorf("arbiter state diverges:\n got %v\nwant %v", got.arbiters, want.arbiters)
						}
						if mode == "preemption" && want.sw.Preempted == 0 {
							t.Error("no preemption happened")
						}
						// The deadline run must actually skip: every SSVC ticks
						// once per 32-cycle quantum of the shortest clock in the
						// switch, not once per cycle.
						if max := len(got.arbiters) * (1400/32 + 2); got.ticks > max {
							t.Errorf("%d SSVC ticks, want at most %d (one per quantum boundary)", got.ticks, max)
						}
						for _, st := range want.arbiters {
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
					a = hideClock(a)
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

type countLRG struct {
	*arb.LRG
	n *int
}

func (c countLRG) Tick(now noc.Cycle) { *c.n++; c.LRG.Tick(now) }
