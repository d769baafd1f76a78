package compose

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

var _ fabric.ErrorReporter = (*Network)(nil)

func TestComposeSetFaultsValidation(t *testing.T) {
	n := mustClos(t, 2, 4, 4)
	// 8 terminals; two 8-port leaves plus one 8-port spine = 24 flat ports.
	if err := n.SetFaults(faults.Config{FailStops: []faults.FailStop{{Input: true, Port: 8, At: 5}}}); err == nil {
		t.Fatal("out-of-range terminal id accepted")
	}
	if err := n.SetFaults(faults.Config{Stalls: []faults.StallWindow{{Port: 24, From: 1, Until: 2}}}); err == nil {
		t.Fatal("out-of-range flat port accepted")
	}
	n.Step()
	if err := n.SetFaults(faults.Config{}); err == nil {
		t.Fatal("SetFaults accepted after the first cycle")
	}
}

func TestComposeFailStopTerminalKillsInjection(t *testing.T) {
	n := mustClos(t, 2, 4, 4)
	const failAt = 100
	if err := n.SetFaults(faults.Config{
		FailStops: []faults.FailStop{{Input: true, Port: 1, At: failAt}},
	}); err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	// Cross-leaf flows through the spine, from two different terminals.
	dead := noc.FlowSpec{Src: 1, Dst: 5, Class: noc.BestEffort, PacketLength: 4}
	alive := noc.FlowSpec{Src: 0, Dst: 4, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, n, dead, traffic.NewBacklogged(&seq, dead, 4))
	addFlow(t, n, alive, traffic.NewBacklogged(&seq, alive, 4))
	var lastDead noc.Cycle
	aliveAfter := 0
	n.OnDeliver(func(p *noc.Packet) {
		switch {
		case p.Src == 1 && p.DeliveredAt > lastDead:
			lastDead = p.DeliveredAt
		case p.Src == 0 && p.DeliveredAt > failAt+50:
			aliveAfter++
		}
	})
	n.OnRelease(seq.Recycle)
	n.Run(1500)
	// In-flight packets drain; nothing new enters from the dead terminal.
	if lastDead >= failAt+200 {
		t.Fatalf("terminal 1 still delivering at cycle %d, long after its fail-stop at %d", lastDead, failAt)
	}
	if aliveAfter == 0 {
		t.Fatal("surviving terminal 0 stopped delivering")
	}
	if n.Dropped == 0 {
		t.Fatal("no drops counted for the dead terminal's queued packets")
	}
}

func TestComposeDeadEjectionPortDropsItsTraffic(t *testing.T) {
	n := mustClos(t, 2, 4, 4)
	// Terminal 1 attaches at leaf 0 port 1; kill that ejection port.
	deadPort := n.PortBase(0) + 1
	const failAt = 100
	if err := n.SetFaults(faults.Config{
		FailStops: []faults.FailStop{{Input: false, Port: deadPort, At: failAt}},
	}); err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	doomed := noc.FlowSpec{Src: 2, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	control := noc.FlowSpec{Src: 3, Dst: 0, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, n, doomed, traffic.NewBacklogged(&seq, doomed, 4))
	addFlow(t, n, control, traffic.NewBacklogged(&seq, control, 4))
	var lastDoomed noc.Cycle
	controlAfter := 0
	n.OnDeliver(func(p *noc.Packet) {
		switch {
		case p.Dst == 1 && p.DeliveredAt > lastDoomed:
			lastDoomed = p.DeliveredAt
		case p.Dst == 0 && p.DeliveredAt > failAt+50:
			controlAfter++
		}
	})
	n.OnRelease(seq.Recycle)
	n.Run(1500)
	if lastDoomed >= failAt+100 {
		t.Fatalf("traffic through the dead ejection port still delivering at cycle %d (port died at %d)",
			lastDoomed, failAt)
	}
	if controlAfter == 0 {
		t.Fatal("flow to a healthy port stopped delivering")
	}
	if n.Dropped == 0 {
		t.Fatal("no drops counted at the dead port")
	}
}

// TestDeadOutputDropsItsCooldown kills an ejection port in the cycle
// after it completed a transmission. A completion's idle cycle is spent
// in the cycle of the completion (transfer, then arbitrate), so no
// cooldown outlives it into the fail-stop: the node drains to no work and
// its ports are skipped again.
func TestDeadOutputDropsItsCooldown(t *testing.T) {
	deadPort := -1
	build := func(cfg faults.Config) *Network {
		n := mustClos(t, 2, 4, 4)
		deadPort = n.PortBase(0) + 1 // terminal 1's ejection port at leaf 0
		if err := n.SetFaults(cfg); err != nil {
			t.Fatal(err)
		}
		var seq traffic.Sequence
		spec := noc.FlowSpec{Src: 2, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
		addFlow(t, n, spec, traffic.NewTrace(&seq, spec, []noc.Cycle{0}))
		return n
	}
	twin := build(faults.Config{})
	for twin.Delivered == 0 {
		if twin.now > 100 {
			t.Fatal("the ejection port never completed a transmission")
		}
		twin.Step()
	}
	n := build(faults.Config{FailStops: []faults.FailStop{{Port: deadPort, At: twin.now}}})
	n.Run(twin.now + 20)
	if arb.MaskHas(n.cool, deadPort) || n.work[0] != 0 || n.activePorts != 0 {
		t.Fatalf("after the drain: cooldown %v, leaf 0 work %d, active ports %d; want false, 0, 0",
			arb.MaskHas(n.cool, deadPort), n.work[0], n.activePorts)
	}
	if n.Delivered != 1 {
		t.Fatalf("delivered %d packets, want the one that completed before the fail-stop", n.Delivered)
	}
}

func TestComposeCorruptionCounters(t *testing.T) {
	n := mustClos(t, 2, 4, 4)
	if err := n.SetFaults(faults.Config{Seed: 9, CorruptProb: 0.2}); err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 5, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 4))
	n.OnRelease(seq.Recycle)
	n.Run(2000)
	c := n.FaultTotals()
	if n.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if c.Corruptions == 0 || c.Retransmissions == 0 {
		t.Fatalf("counters = %+v, want corruptions and retransmissions", c)
	}
}
