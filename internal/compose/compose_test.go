package compose

import (
	"strings"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

func mustClos(t *testing.T, leaves, perLeaf, uplinks int) *Network {
	t.Helper()
	topo, err := TwoLevelClos(leaves, perLeaf, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{Topology: topo, BufferFlits: 16})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func addFlow(t *testing.T, n *Network, spec noc.FlowSpec, gen traffic.Generator) {
	t.Helper()
	if err := n.AddFlow(traffic.Flow{Spec: spec, Gen: gen}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelClosShape(t *testing.T) {
	topo, err := TwoLevelClos(2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Terminals) != 8 {
		t.Fatalf("terminals = %d, want 8", len(topo.Terminals))
	}
	if len(topo.Ports) != 3 || topo.Ports[2] != 8 {
		t.Fatalf("nodes/ports = %v, want two 8-port leaves + one 8-port spine", topo.Ports)
	}
	// 4 uplinks per leaf, both directions.
	if len(topo.Links) != 16 {
		t.Fatalf("links = %d, want 16", len(topo.Links))
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelClosRejectsDegenerate(t *testing.T) {
	if _, err := TwoLevelClos(1, 4, 4); err == nil {
		t.Error("single leaf accepted")
	}
	if _, err := TwoLevelClos(2, 0, 4); err == nil {
		t.Error("zero terminals accepted")
	}
}

func TestLocalTraffic(t *testing.T) {
	// Same-leaf traffic never touches the spine: latency is one node's
	// worth (arb + flits).
	n := mustClos(t, 2, 4, 4)
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, n, spec, traffic.NewTrace(&seq, spec, []noc.Cycle{0}))
	var got *noc.Packet
	n.OnDeliver(func(p *noc.Packet) { got = p })
	n.Run(100)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.TotalLatency() > 6 {
		t.Fatalf("local latency %d, want ~5 (arb + 4 flits)", got.TotalLatency())
	}
}

func TestCrossLeafTraffic(t *testing.T) {
	// Leaf -> spine -> leaf: three nodes, each arb + flits.
	n := mustClos(t, 2, 4, 4)
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 7, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, n, spec, traffic.NewTrace(&seq, spec, []noc.Cycle{0}))
	var got *noc.Packet
	n.OnDeliver(func(p *noc.Packet) { got = p })
	n.Run(200)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	min := noc.Cycle(3 * (4 + 1))
	if got.TotalLatency() < min-3 || got.TotalLatency() > min+6 {
		t.Fatalf("cross-leaf latency %d, want near %d", got.TotalLatency(), min)
	}
}

func TestAllPairsConservation(t *testing.T) {
	n := mustClos(t, 2, 4, 2)
	var seq traffic.Sequence
	for src := 0; src < 8; src++ {
		dst := (src + 3) % 8
		spec := noc.FlowSpec{Src: src, Dst: dst, Class: noc.BestEffort, PacketLength: 4}
		addFlow(t, n, spec, traffic.NewBernoulli(&seq, spec, 0.05, uint64(src)+11))
	}
	n.Run(30000)
	if n.Delivered > n.Admitted || n.Admitted > n.Injected {
		t.Fatalf("conservation violated: %d/%d/%d", n.Injected, n.Admitted, n.Delivered)
	}
	if n.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Drain with silent sources (Bernoulli keeps injecting; instead
	// check sustained progress).
	before := n.Delivered
	n.Run(5000)
	if n.Delivered == before {
		t.Fatal("network stopped making progress")
	}
}

func TestUplinkSharingLimitsThroughput(t *testing.T) {
	// Two flows from the same leaf to the same remote terminal share one
	// uplink (deterministic routing): their combined throughput is one
	// link, L/(L+1).
	n := mustClos(t, 2, 4, 4)
	var seq traffic.Sequence
	for src := 0; src < 2; src++ {
		spec := noc.FlowSpec{Src: src, Dst: 7, Class: noc.BestEffort, PacketLength: 8}
		addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 4))
	}
	var flits uint64
	n.OnDeliver(func(p *noc.Packet) {
		if p.DeliveredAt >= 2000 {
			flits += uint64(p.Length)
		}
	})
	n.Run(22000)
	got := float64(flits) / 20000
	if got < 8.0/9-0.03 || got > 8.0/9+0.02 {
		t.Fatalf("shared-uplink throughput %.3f, want ~%.3f", got, 8.0/9)
	}
}

func TestValidation(t *testing.T) {
	topo, err := TwoLevelClos(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topology: topo, BufferFlits: 0}); err == nil {
		t.Error("zero buffers accepted")
	}
	bad := topo
	bad.Route = nil
	if _, err := New(Config{Topology: bad, BufferFlits: 8}); err == nil {
		t.Error("nil route accepted")
	}
	n, err := New(Config{Topology: topo, BufferFlits: 8})
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	self := noc.FlowSpec{Src: 1, Dst: 1, Class: noc.BestEffort, PacketLength: 2}
	if err := n.AddFlow(traffic.Flow{Spec: self, Gen: traffic.NewBacklogged(&seq, self, 1)}); err == nil {
		t.Error("self flow accepted")
	}
	out := noc.FlowSpec{Src: 0, Dst: 99, Class: noc.BestEffort, PacketLength: 2}
	if err := n.AddFlow(traffic.Flow{Spec: out, Gen: traffic.NewBacklogged(&seq, out, 1)}); err == nil {
		t.Error("out-of-range terminal accepted")
	}
}

// tickOnly hides every face of a generator but Tick.
type tickOnly struct{ traffic.Generator }

// TestAddFlowRefusesPolledGenerator: the network's sources run from the
// arrival calendar alone, so a generator that cannot schedule is refused.
func TestAddFlowRefusesPolledGenerator(t *testing.T) {
	n := mustClos(t, 2, 2, 2)
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 3, Class: noc.BestEffort, PacketLength: 2}
	err := n.AddFlow(traffic.Flow{Spec: spec, Gen: tickOnly{traffic.NewBacklogged(&seq, spec, 1)}})
	if err == nil || !strings.Contains(err.Error(), "scheduling generator") {
		t.Fatalf("a Tick-only generator: AddFlow returned %v", err)
	}
	if err := n.AddFlow(traffic.Flow{Spec: spec}); err == nil {
		t.Fatal("a flow without a generator was accepted")
	}
	addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 1))
}
