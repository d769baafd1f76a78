package compose

import (
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// closDelivery records one delivery for trace comparison between the
// event-driven cycle and the scan oracle.
type closDelivery struct {
	id       uint64
	src, dst int
	at       noc.Cycle
}

// skipNetScenario is one configuration of the event-driven-vs-scan
// differential: a 4-leaf Clos (width 0) or a width x height mesh.
type skipNetScenario struct {
	name          string
	width, height int
	load          float64 // per-flow Bernoulli rate; 0 means fully backlogged
	cycles        noc.Cycle
}

// buildSkipNet builds the scenario's network with one GB flow per
// terminal plus BE traffic on every third terminal: cross-leaf on the
// Clos, the mesh's old fixed pattern on a mesh.
func buildSkipNet(t *testing.T, sc skipNetScenario) *Network {
	t.Helper()
	var n *Network
	if sc.width == 0 {
		n = mustClos(t, 4, 4, 2)
	} else {
		topo, err := Mesh(sc.width, sc.height)
		if err != nil {
			t.Fatal(err)
		}
		if n, err = New(Config{Topology: topo, BufferFlits: 16}); err != nil {
			t.Fatal(err)
		}
	}
	terms := n.Terminals()
	var seq traffic.Sequence
	for i := 0; i < terms; i++ {
		spec := noc.FlowSpec{Src: i, Dst: (i + 5) % terms, Class: noc.GuaranteedBandwidth, PacketLength: 4}
		be := noc.FlowSpec{Src: i, Dst: (i + 9) % terms, Class: noc.BestEffort, PacketLength: 2}
		if sc.width > 0 {
			if spec.Dst = (i*7 + 3) % terms; spec.Dst == i {
				spec.Dst = (spec.Dst + 1) % terms
			}
			be.Dst = terms - 1 - i
		}
		if sc.load > 0 {
			addFlow(t, n, spec, traffic.NewBernoulli(&seq, spec, sc.load, 1000+uint64(i)))
		} else {
			addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 4))
		}
		if i%3 == 0 && be.Src != be.Dst {
			rate := sc.load
			if rate == 0 {
				rate = 0.3
			}
			addFlow(t, n, be, traffic.NewBernoulli(&seq, be, rate, 2000+uint64(i)))
		}
	}
	return n
}

// TestComposeEventDrivenMatchesFullWalk drives the event-driven cycle and
// the scan oracle (oracle_test.go), which walks every head and every
// output of every node with work, over identical workloads on the Clos
// and on meshes up to 12x6 (72 routers, 360 ports, so the event masks
// cross word boundaries), and demands identical behaviour: every counter,
// the skip accounting included, after every cycle, and the complete
// delivery trace. Every output-cycle is a flit, an arbitration or an idle
// cycle, and at low load the skip counters must be positive.
func TestComposeEventDrivenMatchesFullWalk(t *testing.T) {
	scenarios := []skipNetScenario{
		{name: "closLowLoad", load: 0.03, cycles: 4000},
		{name: "closSaturated", cycles: 2500},
		{name: "meshLowLoad4x4", width: 4, height: 4, load: 0.03, cycles: 4000},
		{name: "meshSaturated3x3", width: 3, height: 3, cycles: 2500},
		{name: "meshLowLoad12x6", width: 12, height: 6, load: 0.02, cycles: 3000},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var traces [2][]closDelivery
			var ns [2]*Network
			for v := range ns {
				ns[v] = buildSkipNet(t, sc)
				idx := v
				ns[v].OnDeliver(func(p *noc.Packet) {
					traces[idx] = append(traces[idx], closDelivery{p.ID, p.Src, p.Dst, p.DeliveredAt})
				})
			}
			ev, ref := ns[0], ns[1]
			oracle := newScanOracle(ref)
			for ev.Now() < sc.cycles {
				ev.Step()
				oracle.step()
				if ev.Totals() != ref.Totals() {
					t.Fatalf("cycle %d: counters diverge:\n event-driven %+v\n scan         %+v", ev.Now()-1, ev.Totals(), ref.Totals())
				}
			}
			for v, n := range ns {
				if err := n.Err(); err != nil {
					t.Fatalf("side %d froze: %v", v, err)
				}
			}
			if got, want := ev.DataCycles+ev.ArbCycles+ev.IdleCycles, uint64(ev.totalPorts)*uint64(ev.Now()); got != want {
				t.Errorf("output-cycle accounting %d != ports*cycles %d", got, want)
			}
			if sc.load > 0 && (ev.SkippedOutputs == 0 || ev.SkippedAdmits == 0) {
				t.Errorf("low-load run skipped nothing: outputs=%d admits=%d", ev.SkippedOutputs, ev.SkippedAdmits)
			}
			if len(traces[0]) != len(traces[1]) || len(traces[0]) == 0 {
				t.Fatalf("delivery counts: event-driven %d, scan %d", len(traces[0]), len(traces[1]))
			}
			for i := range traces[0] {
				if traces[0][i] != traces[1][i] {
					t.Fatalf("delivery %d differs: event-driven %+v, scan %+v", i, traces[0][i], traces[1][i])
				}
			}
		})
	}
}
