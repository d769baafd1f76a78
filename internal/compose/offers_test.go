package compose

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// Standing offers are a way of not re-deriving what has not changed. What
// they skip survives here as the oracle: after every cycle's refresh,
// scanOffers looks at the head of every input of every node, as
// arbitration did every cycle before offers persisted, asks Topology.Route
// where it goes, and holds the engine's state to the scan: every input's
// cached head (packet pointer and output), every output's want mask, its
// offered bit. The event masks and counts transfer and arbitrate
// walk are recounted from the channels and buffers themselves.
func scanOffers(t *testing.T, n *Network, now noc.Cycle) {
	t.Helper()
	activePorts := 0
	for _, nd := range n.nodes {
		words := arb.MaskWords(len(nd.in))
		want := make([]uint64, len(nd.out)*words)
		work := 0
		for port := range nd.in {
			f := nd.fbase + port
			if int(n.portNode[f]) != nd.id || f != n.portBase[nd.id]+port {
				t.Fatalf("cycle %d: flat id %d maps to node %d; it is node %d port %d",
					now, f, n.portNode[f], nd.id, port)
			}
			head := nd.in[port].Head()
			if nd.inBusy[port] || (head != nil && head.HoldUntil > now) {
				head = nil
			}
			offerOut, req, _ := n.offers.Standing(f)
			offerOut -= nd.fbase
			if req.Packet != head {
				t.Fatalf("cycle %d: node %d input %d offers %v, scan finds %v", now, nd.id, port, req.Packet, head)
			}
			if head != nil {
				out := n.cfg.Topology.Route(nd.id, head.Dst)
				arb.MaskSet(want[out*words:], port)
				if offerOut != out {
					t.Fatalf("cycle %d: node %d input %d offers to output %d, its head routes to %d",
						now, nd.id, port, offerOut, out)
				}
			}
			work += nd.in[port].Len()
			if arb.MaskHas(n.tx, f) != (nd.out[port] != nil) {
				t.Fatalf("cycle %d: node %d output %d: tx bit %v, channel %v", now, nd.id, port, arb.MaskHas(n.tx, f), nd.out[port])
			}
			if nd.out[port] != nil {
				work++
			}
			if arb.MaskHas(n.cool, f) {
				work++
			}
			// Only an idle input whose head sits out a backoff stays
			// marked, to be asked again next cycle; a dead output owes no
			// idle cycle.
			held := !nd.inBusy[port] && nd.in[port].Head() != nil && nd.in[port].Head().HoldUntil > now
			if arb.MaskHas(n.offers.Dirty(), f) != held {
				t.Fatalf("cycle %d: node %d input %d: dirty after the refresh %v, held head %v",
					now, nd.id, port, arb.MaskHas(n.offers.Dirty(), f), held)
			}
			if arb.MaskHas(n.cool, f) && arb.MaskHas(n.deadOut, f) {
				t.Fatalf("cycle %d: node %d output %d is dead and cooling", now, nd.id, port)
			}
		}
		for out := range nd.out {
			got, scan := n.offers.Want(nd.fbase+out), want[out*words:(out+1)*words]
			for w := range scan {
				if got[w] != scan[w] {
					t.Fatalf("cycle %d: node %d output %d want word %d is %#x, scan finds %#x", now, nd.id, out, w, got[w], scan[w])
				}
			}
			if arb.MaskHas(n.offers.Offered(), nd.fbase+out) != arb.MaskAny(scan) {
				t.Fatalf("cycle %d: node %d output %d offered bit %v with %d requesters",
					now, nd.id, out, arb.MaskHas(n.offers.Offered(), nd.fbase+out), arb.MaskCount(scan))
			}
		}
		// The cooldowns have no other record, so they are held to the
		// work count: buffered packets, channels and cooldowns.
		if n.work[nd.id] != work {
			t.Fatalf("cycle %d: node %d work count %d, recount %d", now, nd.id, n.work[nd.id], work)
		}
		if work > 0 {
			activePorts += len(nd.out)
		}
	}
	if n.activePorts != activePorts {
		t.Fatalf("cycle %d: activePorts %d, recount %d", now, n.activePorts, activePorts)
	}
	for _, m := range [][]uint64{n.tx, n.cool, n.offers.Offered(), n.blocked} {
		for f := n.totalPorts; f < len(m)*64; f++ {
			if arb.MaskHas(m, f) {
				t.Fatalf("cycle %d: a bit is set past the last port", now)
			}
		}
	}
}

// standingOffers counts the offers standing in n's request masks.
func standingOffers(n *Network) int {
	standing := 0
	for f := 0; f < n.totalPorts; f++ {
		standing += arb.MaskCount(n.offers.Want(f))
	}
	return standing
}

// TestOffersMatchScan runs the oracle over the matrix of
// TestBucketsMatchScan, which between its cases holds every event that
// can change an offer: admission into an empty and a nonempty buffer, a
// commit from a neighbour, grant and completion at one and two mask
// words, CRC retries sitting out their backoff, a stall, an input and an
// output fail-stop with heads discarded at the dead route, and a flow
// attached mid-run.
func TestOffersMatchScan(t *testing.T) {
	const cycles, lateAt = 1200, 700
	for _, wiring := range []string{"mesh4x4", "mesh3x5", "clos", "star70"} {
		for _, saturated := range []bool{true, false} {
			for _, fault := range []string{"none", "inert", "real"} {
				for _, seed := range oracleSeeds {
					bc := bucketCase{wiring, saturated, fault, seed}
					t.Run(bc.String(), func(t *testing.T) {
						b := buildBucketNet(t, bc)
						n := b.net
						held, standing := 0, 0
						n.afterRefresh = func(now noc.Cycle) {
							scanOffers(t, n, now)
							standing += standingOffers(n)
							for _, nd := range n.nodes {
								for _, q := range nd.in {
									if p := q.Head(); p != nil && p.HoldUntil > now {
										held++
									}
								}
							}
						}
						n.Run(lateAt)
						late := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.BestEffort, PacketLength: 1}
						addFlow(t, n, late, traffic.NewBacklogged(b.seq, late, 2))
						n.Run(cycles - lateAt)
						if err := n.Err(); err != nil {
							t.Fatalf("engine froze: %v", err)
						}
						if b.delivered < 200 || standing == 0 {
							t.Fatalf("%d deliveries, %d standing offer-cycles: the scenario is too quiet", b.delivered, standing)
						}
						if tot := n.FaultTotals(); fault == "real" && (tot.Retransmissions == 0 || held == 0 || tot.StallCycles == 0 || n.Dropped == 0) {
							t.Fatalf("the fault schedule did not bite: %+v, %d held head-cycles, %d dropped", tot, held, n.Dropped)
						}
					})
				}
			}
		}
	}
}

// TestOfferEvalsFollowGrants pins what the standing offers buy on the
// benchmark's two saturated shapes. Arbitration used to test the head of
// every input every cycle, 320 on the mesh and 128 on the Clos; now a
// cycle re-derives an offer per completion (the freed input's next head)
// and per packet that entered an empty buffer, and a head that waits
// costs nothing while it waits.
func TestOfferEvalsFollowGrants(t *testing.T) {
	for i, limit := range []float64{48, 24} {
		tc := routedSaturatedCases[i]
		t.Run(tc.name, func(t *testing.T) {
			n := routedSaturated(t, tc.build) // warm: heaptest.Cycles cycles in
			const cycles = 20000
			standing := 0
			n.afterRefresh = func(noc.Cycle) { standing += standingOffers(n) }
			evals, arbs := n.offers.Evals, n.ArbCycles
			n.Run(cycles)
			perCycle := float64(n.offers.Evals-evals) / cycles
			waiting := float64(standing) / cycles
			t.Logf("%.2f offer evaluations, %.2f arbitrations, %.1f standing offers per cycle over %d input ports",
				perCycle, float64(n.ArbCycles-arbs)/cycles, waiting, n.totalPorts)
			if waiting <= limit {
				t.Fatalf("fixture is not saturated: %.1f offers stand per cycle, want more than %.0f", waiting, limit)
			}
			if perCycle >= limit {
				t.Fatalf("%.2f offer evaluations per cycle with %.1f offers standing, want under %.0f", perCycle, waiting, limit)
			}
		})
	}
}

// TestAddFlowRejectsOversizedPackets: a packet enters a buffer whole, so
// a flow whose packets are longer than the buffers could never be
// admitted. It used to be accepted and its source queue grew for ever.
// Packets of no or negative length and an undefined class are refused
// too, as switchsim's FlowSpec.Validate refuses them: a -3-flit packet
// passed every CanAccept and drove buffer occupancy negative.
func TestAddFlowRejectsOversizedPackets(t *testing.T) {
	for _, tc := range []struct {
		name           string
		buffer, length int
		class          noc.Class
		wantErr        bool
	}{
		{name: "fitsExactly", buffer: 4, length: 4},
		{name: "oneOver", buffer: 4, length: 5, wantErr: true},
		{name: "twiceOver", buffer: 4, length: 8, wantErr: true},
		{name: "noFlits", buffer: 4, length: 0, wantErr: true},
		{name: "negativeLength", buffer: 4, length: -3, wantErr: true},
		{name: "undefinedClass", buffer: 4, length: 4, class: noc.Class(9), wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := Mesh(2, 2)
			if err != nil {
				t.Fatal(err)
			}
			n, err := New(Config{Topology: topo, BufferFlits: tc.buffer})
			if err != nil {
				t.Fatal(err)
			}
			var seq traffic.Sequence
			spec := noc.FlowSpec{Src: 0, Dst: 3, Class: tc.class, PacketLength: tc.length}
			// NewBacklogged, unlike NewBernoulli, builds a generator for any
			// length, so the refusal is AddFlow's.
			err = n.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 2)})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("AddFlow accepted %d-flit %v packets into %d-flit buffers", tc.length, tc.class, tc.buffer)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			n.Run(2000)
			if n.Admitted == 0 || n.Delivered == 0 {
				t.Fatalf("a flow that fits admitted %d and delivered %d of %d injected", n.Admitted, n.Delivered, n.Injected)
			}
		})
	}
}
