package compose

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// checkSleepAndCalendar holds the sleeping outputs and the completion
// calendar to what they stand for, after the cycle that just ran:
//   - a sleeping output has no standing request its downstream buffer
//     would accept, and is neither transmitting nor cooling;
//   - a transmitting output has exactly one calendar bit, in the slot of
//     a cycle after the one that ran and no later than its packet length
//     past it; any other output has none.
func checkSleepAndCalendar(t *testing.T, n *Network) {
	t.Helper()
	ran := n.now - 1
	slots := int(n.wheelMask) + 1
	for _, nd := range n.nodes {
		for out := range nd.out {
			f := nd.fbase + out
			if arb.MaskHas(n.blocked, f) {
				if !nd.hasNext[out] {
					t.Fatalf("cycle %d: ejection output %d sleeps", ran, f)
				}
				if arb.MaskHas(n.tx, f) || arb.MaskHas(n.cool, f) {
					t.Fatalf("cycle %d: output %d sleeps while transmitting (%v) or cooling (%v)",
						ran, f, arb.MaskHas(n.tx, f), arb.MaskHas(n.cool, f))
				}
				next := nd.next[out]
				down := n.nodes[next.Node].in[next.Port]
				for _, r := range n.offers.Requests(f, nil) {
					if down.CanAccept(r.Packet.Length) {
						t.Fatalf("cycle %d: output %d sleeps, but its downstream buffer (%d of %d flits taken, %d reserved) accepts input %d's %d-flit head",
							ran, f, down.Flits(), down.Cap(), down.Reserved(), r.Input, r.Packet.Length)
					}
				}
			}
			filed := 0
			var due noc.Cycle
			for s := 0; s < slots; s++ {
				if arb.MaskHas(n.wheel[s*len(n.tx):], f) {
					filed++
					// The one cycle in (ran, ran+slots] that maps to slot s.
					due = ran + 1 + noc.CycleOf(uint64((s-int((ran+1).Uint()&n.wheelMask)+slots)%slots))
				}
			}
			tx := nd.out[out]
			if tx == nil {
				if filed != 0 {
					t.Fatalf("cycle %d: idle output %d has %d calendar bits", ran, f, filed)
				}
				continue
			}
			if filed != 1 {
				t.Fatalf("cycle %d: transmitting output %d has %d calendar bits, want 1", ran, f, filed)
			}
			if due > ran+noc.Cycle(tx.Pkt.Length) || due != n.due[f] {
				t.Fatalf("cycle %d: output %d's %d-flit transmission is filed for cycle %d (due %d), want one in (%d, %d]",
					ran, f, tx.Pkt.Length, due, n.due[f], ran, ran+noc.Cycle(tx.Pkt.Length))
			}
		}
	}
}

// TestSleepingOutputsNeverHideAGrant steps the engine and the scan
// oracle of TestBucketsMatchScan in lock step over its matrix, with a
// flow joining midway as in TestOffersMatchScan, and requires the same
// counters after every cycle, the same delivery trace at the end and
// checkSleepAndCalendar after every cycle. The oracle has neither a
// sleeping output nor a calendar: it offers every output every head
// routed to it and moves every transmission a flit a cycle. A sleep
// mask taken before the walk instead of as it reaches each output
// diverges in the counters (a grant earlier in the walk may wake an
// output later in it); a wake missing from a pop leaves an output asleep
// over a request that fits.
func TestSleepingOutputsNeverHideAGrant(t *testing.T) {
	const cycles, lateAt = 1200, 700
	for _, wiring := range []string{"mesh4x4", "mesh3x5", "clos", "star70"} {
		for _, saturated := range []bool{true, false} {
			for _, fault := range []string{"none", "real"} {
				for _, seed := range oracleSeeds {
					bc := bucketCase{wiring, saturated, fault, seed}
					t.Run(bc.String(), func(t *testing.T) {
						got := buildBucketNet(t, bc)
						want := buildBucketNet(t, bc)
						oracle := newScanOracle(want.net)
						n := got.net
						slept := 0
						for n.now < cycles {
							if n.now == lateAt {
								late := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.BestEffort, PacketLength: 16}
								addFlow(t, n, late, traffic.NewBacklogged(got.seq, late, 2))
								addFlow(t, want.net, late, traffic.NewBacklogged(want.seq, late, 2))
							}
							n.Step()
							oracle.step()
							checkSleepAndCalendar(t, n)
							if n.Totals() != want.net.Totals() {
								t.Fatalf("cycle %d: counters diverge:\n got %+v\nwant %+v", n.now-1, n.Totals(), want.net.Totals())
							}
							slept += arb.MaskCount(n.blocked)
						}
						if err := n.Err(); err != nil {
							t.Fatalf("engine froze: %v", err)
						}
						if got.order != want.order || got.delivered != want.delivered {
							t.Errorf("delivery trace diverges: %d packets hash %#x, oracle %d packets hash %#x",
								got.delivered, got.order, want.delivered, want.order)
						}
						if saturated && fault == "none" && slept == 0 {
							t.Error("no output ever slept: the sleep mask went untested")
						}
						if fault == "real" && n.FaultTotals().StallCycles == 0 {
							t.Error("no transmission stalled: the postponed completion went untested")
						}
					})
				}
			}
		}
	}
}

// TestServeVisitsFollowGrants pins what the sleeping outputs and the
// completion calendar buy on the benchmark's two saturated shapes. The
// walk used to serve 97.4 outputs a cycle on the mesh and 27.5 on the
// Clos, 46.8 and 3.7 of them to find every standing request refused by
// the downstream buffer, and to visit every transmitting output a cycle
// to decrement its flit count (101.2 and 47.6). Now a refused output
// sleeps until its downstream buffer pops, and a transmission costs its
// grant and its completion.
func TestServeVisitsFollowGrants(t *testing.T) {
	for i, limit := range []float64{60, 26} {
		tc := routedSaturatedCases[i]
		t.Run(tc.name, func(t *testing.T) {
			n := routedSaturated(t, tc.build) // warm: heaptest.Cycles cycles in
			const cycles = 20000
			serves, arbs, done := n.serves, n.ArbCycles, n.Delivered
			n.Run(cycles)
			perCycle := float64(n.serves-serves) / cycles
			t.Logf("%.2f serve calls, %.2f arbitrations, %.2f deliveries per cycle over %d outputs",
				perCycle, float64(n.ArbCycles-arbs)/cycles, float64(n.Delivered-done)/cycles, n.totalPorts)
			if perCycle >= limit {
				t.Fatalf("%.2f serve calls per cycle, want under %.0f", perCycle, limit)
			}
		})
	}
}
