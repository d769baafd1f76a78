package mesh

import (
	"testing"

	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// meshDelivery records one delivery for trace comparison between the
// event-driven and full-walk cycle loops.
type meshDelivery struct {
	id       uint64
	src, dst int
	at       noc.Cycle
}

// meshSkipScenario is one configuration of the masked-vs-full
// differential.
type meshSkipScenario struct {
	name          string
	width, height int
	load          float64 // per-flow Bernoulli rate; 0 means fully backlogged
	cycles        noc.Cycle
}

// buildSkipMesh builds a mesh with one GB flow per node plus BE cross
// traffic on every third node. fullWalk installs an inert fault schedule
// — the zero faults.Config injects nothing — which puts every port in
// the masks the cycle walks and turns the bulk accounting off: the
// reference full walk, without changing any observable behavior.
func buildSkipMesh(t *testing.T, sc meshSkipScenario, fullWalk bool) *Mesh {
	t.Helper()
	m := mustMesh(t, sc.width, sc.height)
	if fullWalk {
		if err := m.SetFaults(faults.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	nodes := sc.width * sc.height
	var seq traffic.Sequence
	for i := 0; i < nodes; i++ {
		dst := (i*7 + 3) % nodes
		if dst == i {
			dst = (dst + 1) % nodes
		}
		spec := noc.FlowSpec{Src: i, Dst: dst, Class: noc.GuaranteedBandwidth, PacketLength: 4}
		if sc.load > 0 {
			addFlow(t, m, spec, traffic.NewBernoulli(&seq, spec, sc.load, 1000+uint64(i)))
		} else {
			addFlow(t, m, spec, traffic.NewBacklogged(&seq, spec, 4))
		}
		if i%3 == 0 {
			be := noc.FlowSpec{Src: i, Dst: nodes - 1 - i, Class: noc.BestEffort, PacketLength: 2}
			if be.Src != be.Dst {
				rate := sc.load
				if rate == 0 {
					rate = 0.3
				}
				addFlow(t, m, be, traffic.NewBernoulli(&seq, be, rate, 2000+uint64(i)))
			}
		}
	}
	return m
}

// TestMeshEventDrivenMatchesFullWalk drives the default event-driven
// cycle loop and the reference full-walk loop (forced via an inert fault
// schedule) over identical workloads and demands identical behavior:
// every counter and the complete delivery trace must match. The only
// permitted difference is the skip accounting itself, which must be zero
// on the full walk and (at low load) positive on the event-driven path.
// The 12x6 scenario spans 72 routers, 360 ports, so the event masks cross
// word boundaries.
func TestMeshEventDrivenMatchesFullWalk(t *testing.T) {
	scenarios := []meshSkipScenario{
		{name: "lowLoad4x4", width: 4, height: 4, load: 0.03, cycles: 4000},
		{name: "saturated3x3", width: 3, height: 3, cycles: 2500},
		{name: "lowLoad12x6", width: 12, height: 6, load: 0.02, cycles: 3000},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var traces [2][]meshDelivery
			var ms [2]*Mesh
			for v := 0; v < 2; v++ {
				m := buildSkipMesh(t, sc, v == 1)
				idx := v
				m.OnDeliver(func(p *noc.Packet) {
					traces[idx] = append(traces[idx], meshDelivery{p.ID, p.Src, p.Dst, p.DeliveredAt})
				})
				m.Run(sc.cycles)
				if err := m.Err(); err != nil {
					t.Fatalf("fullWalk=%v: engine froze: %v", v == 1, err)
				}
				ms[v] = m
			}
			ev, ref := ms[0], ms[1]
			counters := []struct {
				name    string
				ev, ref uint64
			}{
				{"Injected", ev.Injected, ref.Injected},
				{"Admitted", ev.Admitted, ref.Admitted},
				{"Delivered", ev.Delivered, ref.Delivered},
				{"Dropped", ev.Dropped, ref.Dropped},
				{"ArbCycles", ev.ArbCycles, ref.ArbCycles},
				{"IdleCycles", ev.IdleCycles, ref.IdleCycles},
				{"DataCycles", ev.DataCycles, ref.DataCycles},
			}
			for _, c := range counters {
				if c.ev != c.ref {
					t.Errorf("%s: event-driven %d != full-walk %d", c.name, c.ev, c.ref)
				}
			}
			if ref.SkippedOutputs != 0 || ref.SkippedAdmits != 0 {
				t.Errorf("full walk must not skip: outputs=%d admits=%d",
					ref.SkippedOutputs, ref.SkippedAdmits)
			}
			if sc.load > 0 && sc.load <= 0.05 {
				if ev.SkippedOutputs == 0 {
					t.Error("low-load event-driven run skipped no router output cycles")
				}
				if ev.SkippedAdmits == 0 {
					t.Error("low-load event-driven run skipped no admission scans")
				}
			}
			if len(traces[0]) != len(traces[1]) {
				t.Fatalf("delivery counts differ: event-driven %d, full-walk %d",
					len(traces[0]), len(traces[1]))
			}
			for i := range traces[0] {
				if traces[0][i] != traces[1][i] {
					t.Fatalf("delivery %d differs: event-driven %+v, full-walk %+v",
						i, traces[0][i], traces[1][i])
				}
			}
		})
	}
}
