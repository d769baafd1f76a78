package compose

import (
	"testing"

	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// closDelivery records one delivery for trace comparison between the
// event-driven and full-walk cycle loops.
type closDelivery struct {
	id       uint64
	src, dst int
	at       noc.Cycle
}

// buildSkipClos builds a 4-leaf Clos with one cross-leaf GB flow per
// terminal plus BE traffic on every third terminal. fullWalk installs an
// inert fault schedule — the zero faults.Config injects nothing — which
// puts every port in the masks the cycle walks and turns the bulk
// accounting off: the reference full walk, without changing any
// observable behavior.
func buildSkipClos(t *testing.T, load float64, fullWalk bool) *Network {
	t.Helper()
	n := mustClos(t, 4, 4, 2)
	if fullWalk {
		if err := n.SetFaults(faults.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	terms := n.Terminals()
	var seq traffic.Sequence
	for i := 0; i < terms; i++ {
		spec := noc.FlowSpec{Src: i, Dst: (i + 5) % terms, Class: noc.GuaranteedBandwidth, PacketLength: 4}
		if load > 0 {
			addFlow(t, n, spec, traffic.NewBernoulli(&seq, spec, load, 1000+uint64(i)))
		} else {
			addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 4))
		}
		if i%3 == 0 {
			be := noc.FlowSpec{Src: i, Dst: (i + 9) % terms, Class: noc.BestEffort, PacketLength: 2}
			rate := load
			if rate == 0 {
				rate = 0.3
			}
			addFlow(t, n, be, traffic.NewBernoulli(&seq, be, rate, 2000+uint64(i)))
		}
	}
	return n
}

// TestComposeEventDrivenMatchesFullWalk drives the default event-driven
// cycle loop and the reference full-walk loop (forced via an inert fault
// schedule) over identical workloads and demands identical behavior:
// every counter and the complete delivery trace must match. The only
// permitted difference is the skip accounting itself, which must be zero
// on the full walk and (at low load) positive on the event-driven path.
func TestComposeEventDrivenMatchesFullWalk(t *testing.T) {
	scenarios := []struct {
		name   string
		load   float64 // per-flow Bernoulli rate; 0 means fully backlogged
		cycles noc.Cycle
	}{
		{name: "lowLoad", load: 0.03, cycles: 4000},
		{name: "saturated", cycles: 2500},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var traces [2][]closDelivery
			var ns [2]*Network
			for v := 0; v < 2; v++ {
				n := buildSkipClos(t, sc.load, v == 1)
				idx := v
				n.OnDeliver(func(p *noc.Packet) {
					traces[idx] = append(traces[idx], closDelivery{p.ID, p.Src, p.Dst, p.DeliveredAt})
				})
				n.Run(sc.cycles)
				if err := n.Err(); err != nil {
					t.Fatalf("fullWalk=%v: engine froze: %v", v == 1, err)
				}
				ns[v] = n
			}
			ev, ref := ns[0], ns[1]
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
					t.Error("low-load event-driven run skipped no node output cycles")
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
