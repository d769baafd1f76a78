package compose

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// The tick-cadence differential for routed networks (see the switchsim
// test of the same name): ticking arbiters on their announced deadlines
// must be indistinguishable from ticking them every cycle. perCycle hides
// an arbiter's NextTick, which puts the network back on the every-cycle
// cadence — the oracle.
type perCycle struct{ arb.Arbiter }

type tickCase struct {
	wiring string // mesh, clos
	policy core.CounterPolicy
	gl     bool
	faults bool
	seed   uint64 // one of oracleSeeds: offsets every traffic and fault seed
}

func (tc tickCase) String() string {
	return fmt.Sprintf("%s/%v/gl=%v/faults=%v/seed%d", tc.wiring, tc.policy, tc.gl, tc.faults, tc.seed)
}

type tickOutcome struct {
	deliveries uint64 // FNV-1a over the ordered delivery trace
	delivered  int
	counters   fabric.Counters
	arbiters   [][]uint64 // per arbiter: saturations, deadline, then aux, coarse and LRG rank per input
	ticks      int        // Tick calls that reached an SSVC (counted by the deadline run only)
}

// countTicks counts the Tick calls an SSVC receives and keeps its
// deadline face visible. Each arbiter has a counter of its own.
type countTicks struct {
	*core.SSVC
	n *int
}

func (c countTicks) Tick(now noc.Cycle) { *c.n++; c.SSVC.Tick(now) }

func tickVticks(ports int, scale uint64) []core.VTime {
	vt := make([]core.VTime, ports)
	for i := range vt {
		vt[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 4}.Vtick() * noc.VTimeOf(scale)
	}
	return vt
}

// runTickCase builds a 3x3 mesh or a 4-leaf Clos with an SSVC at every
// output port — quanta of 32 and 64 cycles interleaved, so the network's
// deadline is a minimum over unequal announcements — and drives it across
// a mid-run SetVticks and a late AddFlow.
func runTickCase(t *testing.T, tc tickCase, oracle bool) tickOutcome {
	t.Helper()
	var out tickOutcome
	var topo Topology
	var err error
	if tc.wiring == "mesh" {
		topo, err = Mesh(3, 3)
	} else {
		topo, err = TwoLevelClos(4, 4, 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	var ssvcs []*core.SSVC
	var ticks []*int
	net, err := New(Config{
		Topology: topo, BufferFlits: 16,
		NewArbiter: func(node, port, ports int) arb.Arbiter {
			c := core.Config{
				Radix: ports, CounterBits: 8 + (node+port)%2, SigBits: 3,
				Policy: tc.policy, Vticks: tickVticks(ports, 1),
			}
			if tc.gl {
				c.EnableGL, c.GLVtick, c.GLBurst = true, noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick(), 2
			}
			s := core.NewSSVC(c)
			ssvcs = append(ssvcs, s)
			if oracle {
				return perCycle{s}
			}
			n := new(int)
			ticks = append(ticks, n)
			return countTicks{s, n}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tc.faults {
		if err := net.SetFaults(faults.Config{
			Seed:        5 + tc.seed,
			CorruptProb: 0.01,
			Stalls:      []faults.StallWindow{{Port: 4, From: 300, Until: 420}},
			FailStops:   []faults.FailStop{{Port: 2, At: 800, Input: true}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var seq traffic.Sequence
	terms := net.Terminals()
	for i := 0; i < terms; i++ {
		// Backlogged GB flows converging on terminal 0 overdrive the
		// arbiters on the way so their counters saturate; the rest is
		// Bernoulli GB and bursty BE across the network.
		gb := noc.FlowSpec{Src: i, Dst: (i + terms/2) % terms, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
		addFlow(t, net, gb, traffic.NewBernoulli(&seq, gb, 0.25, 1000+uint64(i)+tc.seed<<32))
		if i > 0 && i%2 == 0 {
			hot := noc.FlowSpec{Src: i, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
			addFlow(t, net, hot, traffic.NewBacklogged(&seq, hot, 2))
		}
		be := noc.FlowSpec{Src: i, Dst: (i + 1) % terms, Class: noc.BestEffort, PacketLength: 2}
		addFlow(t, net, be, traffic.NewBursty(&seq, be, 0.1, 3, 2000+uint64(i)+tc.seed<<32))
		if tc.gl && i%4 == 1 {
			gl := noc.FlowSpec{Src: i, Dst: (i + 3) % terms, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
			addFlow(t, net, gl, traffic.NewPeriodic(&seq, gl, 53, noc.Cycle(i)))
		}
	}
	h := fnv.New64a()
	net.OnDeliver(func(p *noc.Packet) {
		out.delivered++
		fmt.Fprintln(h, p.ID, p.Src, p.Dst, p.Class, p.Length, p.CreatedAt, p.EnqueuedAt, p.GrantedAt, p.DeliveredAt)
	})
	net.OnRelease(seq.Recycle)

	// 1400 cycles cross 43 of the 32-cycle quanta and 21 of the 64-cycle
	// ones.
	net.Run(450)
	for _, s := range ssvcs {
		if err := s.SetVticks(tickVticks(s.LRG().Size(), 2)); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(350)
	late := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
	addFlow(t, net, late, traffic.NewBernoulli(&seq, late, 0.4, 77+tc.seed<<32))
	net.Run(600)
	if err := net.Err(); err != nil {
		t.Fatalf("%v: engine froze: %v", tc, err)
	}

	out.deliveries = h.Sum64()
	for _, n := range ticks {
		out.ticks += *n
	}
	out.counters = net.Totals()
	for _, s := range ssvcs {
		st := []uint64{s.Saturations(), s.NextTick().Uint()}
		for i := 0; i < s.LRG().Size(); i++ {
			st = append(st, s.Aux(i).Uint(), uint64(s.Coarse(i)), uint64(s.LRG().Rank(i)))
		}
		out.arbiters = append(out.arbiters, st)
	}
	return out
}

func TestTickDeadlinesMatchEveryCycle(t *testing.T) {
	saturated := map[core.CounterPolicy]bool{}
	for _, wiring := range []string{"mesh", "clos"} {
		for _, policy := range []core.CounterPolicy{core.SubtractRealTime, core.Halve, core.Reset} {
			for _, gl := range []bool{false, true} {
				for _, withFaults := range []bool{false, true} {
					for _, seed := range oracleSeeds {
						tc := tickCase{wiring, policy, gl, withFaults, seed}
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
							if got.counters != want.counters {
								t.Errorf("counters diverge:\n got %+v\nwant %+v", got.counters, want.counters)
							}
							if !reflect.DeepEqual(got.arbiters, want.arbiters) {
								t.Errorf("arbiter state diverges:\n got %v\nwant %v", got.arbiters, want.arbiters)
							}
							// The deadline run must actually skip: an SSVC
							// ticks once per 32-cycle quantum of the
							// shortest clock in the network, not per cycle.
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
	}
	for policy, fired := range saturated {
		if !fired && policy != core.SubtractRealTime {
			t.Errorf("%v never fired: the differential does not cover its counter path", policy)
		}
	}
}

// TestDefaultArbitersNeverTick: the default LRG arbiters announce "never",
// so a routed network walks them once, on the first cycle.
func TestDefaultArbitersNeverTick(t *testing.T) {
	ticks := 0
	topo, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := New(Config{Topology: topo, BufferFlits: 16,
		NewArbiter: func(node, port, ports int) arb.Arbiter {
			if node == 4 && port == 0 {
				return countLRG{arb.NewLRG(ports), &ticks}
			}
			return arb.NewLRG(ports)
		}})
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 8, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, net, spec, traffic.NewBacklogged(&seq, spec, 2))
	net.Run(200)
	if ticks != 1 {
		t.Fatalf("an LRG arbiter ticked %d times in 200 cycles, want 1", ticks)
	}
}

type countLRG struct {
	*arb.LRG
	n *int
}

func (c countLRG) Tick(now noc.Cycle) { *c.n++; c.LRG.Tick(now) }
