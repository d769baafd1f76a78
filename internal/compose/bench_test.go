package compose

import (
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// benchClos builds a saturated 4-leaf Clos (16 terminals, 2 uplinks per
// leaf) with one backlogged GB flow per terminal, crossing leaves so both
// stages stay busy.
func benchClos(b *testing.B) (*Network, *traffic.Sequence) {
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

// BenchmarkComposeCycleRecycled is the steady-state configuration the
// experiments layer runs in: delivered packets are handed back to the
// generator pool via OnRelease, so the cycle loop should report zero
// allocations per cycle once the pipelines and free lists are warm.
func BenchmarkComposeCycleRecycled(b *testing.B) {
	net, seq := benchClos(b)
	net.OnRelease(seq.Recycle)
	net.Run(1000) // fill pipelines and prime the free lists
	b.ReportAllocs()
	b.ResetTimer()
	net.Run(noc.Cycle(b.N))
	b.ReportMetric(float64(net.Delivered)/float64(net.Now()), "pkts/cycle")
}

// BenchmarkRoutedSaturated is the shape of the repository benchmark's
// routed_sat workload, so its profile is reproducible from this package:
// 4 backlogged 4-flit best-effort flows per terminal to distinct
// destinations, 16-flit buffers, LRG arbiters, delivered packets
// recycled. Every injection port and most links are saturated, which is
// the regime where a cycle must cost its requests and not its port pairs.
func BenchmarkRoutedSaturated(b *testing.B) {
	cases := []struct {
		name  string
		build func() (Topology, error)
	}{
		{"mesh8x8", func() (Topology, error) { return Mesh(8, 8) }},
		{"clos8x8x4", func() (Topology, error) { return TwoLevelClos(8, 8, 4) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			topo, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			net, err := New(Config{Topology: topo, BufferFlits: 16})
			if err != nil {
				b.Fatal(err)
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
						b.Fatal(err)
					}
				}
			}
			net.OnRelease(seq.Recycle)
			// Fill the pipelines and prime the free lists: the Clos' packet
			// pool is still growing at 5000 cycles, which reads as 4 B/op.
			net.Run(15000)
			b.ReportAllocs()
			b.ResetTimer()
			net.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(net.Delivered)/float64(net.Now()), "pkts/cycle")
		})
	}
}
