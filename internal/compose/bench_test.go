package compose

import (
	"testing"

	"swizzleqos/internal/heaptest"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// benchClos builds a saturated 4-leaf Clos (16 terminals, 2 uplinks per
// leaf) with one backlogged GB flow per terminal, crossing leaves so both
// stages stay busy.
func benchClos(b testing.TB) (*Network, *traffic.Sequence) {
	b.Helper()
	topo, err := TwoLevelClos(4, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	net, err := New(Config{Topology: topo, BufferFlits: 16})
	if err != nil {
		b.Fatal(err)
	}
	seq := new(traffic.Sequence)
	terms := net.Terminals()
	for i := 0; i < terms; i++ {
		spec := noc.FlowSpec{
			Src: i, Dst: (i + 5) % terms,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.5,
			PacketLength: 8,
		}
		if err := net.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}); err != nil {
			b.Fatal(err)
		}
	}
	return net, seq
}

// BenchmarkComposeCycle measures composed-network simulation speed with
// the generators NOT recycling packets.
func BenchmarkComposeCycle(b *testing.B) {
	net, _ := benchClos(b)
	net.Run(1000)
	b.ReportAllocs()
	b.ResetTimer()
	net.Run(noc.Cycle(b.N))
	b.ReportMetric(float64(net.Delivered)/float64(net.Now()), "pkts/cycle")
}

// recycledClos is benchClos in the steady-state configuration the
// experiments layer runs in: delivered packets are handed back to the
// generator pool via OnRelease, and the network is returned warm
// (pipelines full, free lists primed), so the cycle loop should report
// zero allocations per cycle.
func recycledClos(tb testing.TB) *Network {
	net, seq := benchClos(tb)
	net.OnRelease(seq.Recycle)
	net.Run(heaptest.Cycles)
	return net
}

// routedSaturatedCases are the two topologies of the repository
// benchmark's routed_sat workload.
var routedSaturatedCases = []struct {
	name  string
	build func() (Topology, error)
}{
	{"mesh8x8", func() (Topology, error) { return Mesh(8, 8) }},
	{"clos8x8x4", func() (Topology, error) { return TwoLevelClos(8, 8, 4) }},
}

// routedSaturated is the shape of routed_sat, so its profile is
// reproducible from this package: 4 backlogged 4-flit best-effort flows
// per terminal to distinct destinations, 16-flit buffers, LRG arbiters,
// delivered packets recycled. Every injection port and most links are
// saturated, which is the regime where a cycle must cost its requests
// and not its port pairs. The network is returned warm: the Clos' packet
// pool is still growing at 5000 cycles.
func routedSaturated(tb testing.TB, build func() (Topology, error)) *Network {
	topo, err := build()
	if err != nil {
		tb.Fatal(err)
	}
	net, err := New(Config{Topology: topo, BufferFlits: 16})
	if err != nil {
		tb.Fatal(err)
	}
	seq := new(traffic.Sequence)
	terms := net.Terminals()
	rng := traffic.NewRNG(1)
	dsts := make([]int, terms)
	for src := 0; src < terms; src++ {
		// The first four of a seeded shuffle that are not src.
		for i := range dsts {
			dsts[i] = i
		}
		for i, flows := terms-1, 0; flows < 4; i-- {
			j := rng.Intn(i + 1)
			dsts[i], dsts[j] = dsts[j], dsts[i]
			if dsts[i] == src {
				continue
			}
			flows++
			spec := noc.FlowSpec{Src: src, Dst: dsts[i], Class: noc.BestEffort, PacketLength: 4}
			if err := net.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	net.OnRelease(seq.Recycle)
	net.Run(heaptest.Cycles)
	return net
}

// TestSteadyStateAllocs is the allocation gate on the cycle loop: every
// steady-state benchmark configuration must run warm without a malloc
// per cycle.
func TestSteadyStateAllocs(t *testing.T) {
	check := func(name string, build func(testing.TB) *Network) {
		t.Run(name, func(t *testing.T) {
			net := build(t)
			heaptest.Zero(t, func(n int) { net.Run(noc.Cycle(n)) })
			if err := net.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	check("ComposeCycleRecycled", recycledClos)
	for _, tc := range routedSaturatedCases {
		check("RoutedSaturated/"+tc.name, func(tb testing.TB) *Network { return routedSaturated(tb, tc.build) })
	}
}

// BenchmarkComposeCycleRecycled measures the steady-state configuration.
func BenchmarkComposeCycleRecycled(b *testing.B) {
	net := recycledClos(b)
	b.ReportAllocs()
	b.ResetTimer()
	net.Run(noc.Cycle(b.N))
	b.ReportMetric(float64(net.Delivered)/float64(net.Now()), "pkts/cycle")
}

// BenchmarkRoutedSaturated measures the routed_sat shape on both of its
// topologies.
func BenchmarkRoutedSaturated(b *testing.B) {
	for _, tc := range routedSaturatedCases {
		b.Run(tc.name, func(b *testing.B) {
			net := routedSaturated(b, tc.build)
			b.ReportAllocs()
			b.ResetTimer()
			net.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(net.Delivered)/float64(net.Now()), "pkts/cycle")
		})
	}
}
