package mesh

import (
	"strings"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/heaptest"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

func mustMesh(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := New(Config{Width: w, Height: h, BufferFlits: 16})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func addFlow(t *testing.T, m *Mesh, spec noc.FlowSpec, gen traffic.Generator) {
	t.Helper()
	if err := m.AddFlow(traffic.Flow{Spec: spec, Gen: gen}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 4, BufferFlits: 8},
		{Width: 1, Height: 1, BufferFlits: 8},
		{Width: 4, Height: 4, BufferFlits: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Shards is a stub: the mesh runs one serial cycle.
	for _, shards := range []int{0, 1} {
		if _, err := New(Config{Width: 2, Height: 2, BufferFlits: 8, Shards: shards}); err != nil {
			t.Errorf("Shards %d refused: %v", shards, err)
		}
	}
	if _, err := New(Config{Width: 2, Height: 2, BufferFlits: 8, Shards: 2}); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("Shards 2: got %v, want an error naming Shards", err)
	}
}

func TestHopCountAndDiameter(t *testing.T) {
	m := mustMesh(t, 4, 4)
	if m.Diameter() != 6 {
		t.Fatalf("diameter = %d, want 6", m.Diameter())
	}
	cases := []struct{ src, dst, hops int }{
		{0, 15, 6}, {0, 1, 1}, {0, 4, 1}, {5, 10, 2}, {3, 12, 6},
	}
	for _, tc := range cases {
		if got := m.HopCount(tc.src, tc.dst); got != tc.hops {
			t.Errorf("HopCount(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.hops)
		}
	}
}

func TestSinglePacketCrossesTheMesh(t *testing.T) {
	m := mustMesh(t, 4, 4)
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 15, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, m, spec, traffic.NewTrace(&seq, spec, []noc.Cycle{0}))
	var got *noc.Packet
	m.OnDeliver(func(p *noc.Packet) { got = p })
	m.Run(200)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	// 6 hops plus ejection, each (4+1) cycles of link occupancy minimum.
	min := noc.Cycle((m.Diameter() + 1) * (spec.PacketLength + 1))
	if got.TotalLatency() < min-7 || got.TotalLatency() > min+14 {
		t.Fatalf("latency %d, want near %d (no contention)", got.TotalLatency(), min)
	}
}

func TestXYRoutingIsMinimal(t *testing.T) {
	// Every packet between every pair arrives, and an otherwise idle
	// mesh delivers it in time proportional to the hop count.
	m := mustMesh(t, 3, 3)
	var seq traffic.Sequence
	for src := 0; src < 9; src++ {
		dst := (src + 4) % 9
		if dst == src {
			continue
		}
		spec := noc.FlowSpec{Src: src, Dst: dst, Class: noc.BestEffort, PacketLength: 2}
		addFlow(t, m, spec, traffic.NewTrace(&seq, spec, []noc.Cycle{noc.Cycle(src) * 500}))
	}
	m.Run(6000)
	if m.Delivered != m.Injected || m.Delivered == 0 {
		t.Fatalf("delivered %d of %d", m.Delivered, m.Injected)
	}
}

func TestConservationUnderRandomTraffic(t *testing.T) {
	m := mustMesh(t, 4, 2)
	var seq traffic.Sequence
	for src := 0; src < 8; src++ {
		dst := (src + 3) % 8
		spec := noc.FlowSpec{Src: src, Dst: dst, Class: noc.BestEffort, PacketLength: 4}
		addFlow(t, m, spec, traffic.NewBernoulli(&seq, spec, 0.08, uint64(src)+7))
	}
	m.Run(20000)
	// Drain: no injection after the run window; give ample time.
	drained := m.Delivered
	m.Run(5000)
	if m.Delivered == drained && m.Delivered < m.Admitted {
		t.Fatal("mesh stopped making progress with packets in flight")
	}
	if m.Delivered > m.Admitted {
		t.Fatalf("delivered %d > admitted %d", m.Delivered, m.Admitted)
	}
}

func TestLinkThroughputCeiling(t *testing.T) {
	// Two saturated flows share the single link into a 1x2 mesh's
	// second node... use 2x1: nodes 0 and 1; one flow 0->1 saturated:
	// the link moves L/(L+1) flits/cycle, like the switch channel.
	m, err := New(Config{Width: 2, Height: 1, BufferFlits: 16})
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 8}
	addFlow(t, m, spec, traffic.NewBacklogged(&seq, spec, 4))
	var flits uint64
	m.OnDeliver(func(p *noc.Packet) {
		if p.DeliveredAt >= 2000 {
			flits += uint64(p.Length)
		}
	})
	m.Run(20000)
	got := float64(flits) / 18000
	// Two hops in series (link + ejection), each L/(L+1); pipelined the
	// end-to-end rate is still L/(L+1).
	want := 8.0 / 9
	if got < want-0.03 || got > want+0.02 {
		t.Fatalf("link throughput %.3f, want ~%.3f", got, want)
	}
}

func TestMergedFlowsShareLinkEqually(t *testing.T) {
	// The motivation argument: router arbiters see ports, not flows.
	// Two flows merging onto one link split it evenly under LRG even if
	// one "deserves" more.
	m := mustMesh(t, 3, 1)
	var seq traffic.Sequence
	a := noc.FlowSpec{Src: 0, Dst: 2, Class: noc.BestEffort, PacketLength: 8}
	b := noc.FlowSpec{Src: 1, Dst: 2, Class: noc.BestEffort, PacketLength: 8}
	addFlow(t, m, a, traffic.NewBacklogged(&seq, a, 4))
	addFlow(t, m, b, traffic.NewBacklogged(&seq, b, 4))
	var fa, fb uint64
	m.OnDeliver(func(p *noc.Packet) {
		if p.DeliveredAt < 2000 {
			return
		}
		if p.Src == 0 {
			fa += uint64(p.Length)
		} else {
			fb += uint64(p.Length)
		}
	})
	m.Run(30000)
	ratio := float64(fa) / float64(fa+fb)
	if ratio < 0.45 || ratio > 0.55 {
		t.Fatalf("flow A share %.3f, want ~0.5 (port-level fairness)", ratio)
	}
}

func TestAddFlowValidation(t *testing.T) {
	m := mustMesh(t, 2, 2)
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.BestEffort, PacketLength: 4}
	if err := m.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 1)}); err == nil {
		t.Error("self-flow accepted")
	}
	spec = noc.FlowSpec{Src: 0, Dst: 9, Class: noc.BestEffort, PacketLength: 4}
	if err := m.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 1)}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	spec = noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	if err := m.AddFlow(traffic.Flow{Spec: spec}); err == nil {
		t.Error("nil generator accepted")
	}
}

func TestCustomArbiter(t *testing.T) {
	m, err := New(Config{Width: 2, Height: 1, BufferFlits: 16,
		NewArbiter: func() arb.Arbiter { return arb.NewRoundRobin(5) }})
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, m, spec, traffic.NewTrace(&seq, spec, []noc.Cycle{0}))
	m.Run(100)
	if m.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", m.Delivered)
	}
}

func TestPortString(t *testing.T) {
	names := map[Port]string{Local: "local", North: "north", South: "south", East: "east", West: "west", Port(9): "Port(9)"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("Port(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

// BenchmarkMeshCycle measures mesh simulation speed under uniform random
// saturating traffic on a 4x4 mesh.
func BenchmarkMeshCycle(b *testing.B) {
	m, err := New(Config{Width: 4, Height: 4, BufferFlits: 16})
	if err != nil {
		b.Fatal(err)
	}
	var seq traffic.Sequence
	for src := 0; src < 16; src++ {
		dst := (src + 5) % 16
		spec := noc.FlowSpec{Src: src, Dst: dst, Class: noc.BestEffort, PacketLength: 4}
		if err := m.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 4)}); err != nil {
			b.Fatal(err)
		}
	}
	m.Run(1000)
	b.ResetTimer()
	m.Run(noc.Cycle(b.N))
	b.ReportMetric(float64(m.Delivered)/float64(m.Now()), "pkts/cycle")
}

// The steady-state configurations: saturated, delivered packets handed
// back to the generator pool via OnRelease as the experiments layer
// does, and warm (pipelines full, free lists and the packet pool at
// their high-water marks: an 8x8 mesh's in-flight population is still
// growing thousands of cycles in), so that the benchmark times, and
// TestSteadyStateAllocs counts, nothing but the cycle loop.
func recycledMesh(tb testing.TB, w, h int, dst func(src, nodes int) int) *Mesh {
	m, err := New(Config{Width: w, Height: h, BufferFlits: 16})
	if err != nil {
		tb.Fatal(err)
	}
	seq := new(traffic.Sequence)
	nodes := w * h
	for src := 0; src < nodes; src++ {
		spec := noc.FlowSpec{Src: src, Dst: dst(src, nodes), Class: noc.BestEffort, PacketLength: 4}
		if err := m.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}); err != nil {
			tb.Fatal(err)
		}
	}
	m.OnRelease(seq.Recycle)
	m.Run(heaptest.Cycles)
	return m
}

func recycledMesh4x4(tb testing.TB) *Mesh {
	return recycledMesh(tb, 4, 4, func(src, nodes int) int { return (src + 5) % nodes })
}

// TestSteadyStateAllocs is the allocation gate on the cycle loop: every
// steady-state benchmark configuration must run warm without a malloc
// per cycle.
func TestSteadyStateAllocs(t *testing.T) {
	check := func(name string, build func(testing.TB) *Mesh) {
		t.Run(name, func(t *testing.T) {
			m := build(t)
			heaptest.Zero(t, func(n int) { m.Run(noc.Cycle(n)) })
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	check("MeshCycleRecycled", recycledMesh4x4)
}

// BenchmarkMeshCycleRecycled measures the steady-state configuration on
// a 4x4 mesh: the cycle loop should report zero allocations per cycle.
func BenchmarkMeshCycleRecycled(b *testing.B) {
	m := recycledMesh4x4(b)
	b.ReportAllocs()
	b.ResetTimer()
	m.Run(noc.Cycle(b.N))
	b.ReportMetric(float64(m.Delivered)/float64(m.Now()), "pkts/cycle")
}

// Diameter returns the mesh diameter in hops.
func (m *Mesh) Diameter() int { return m.width + m.height - 2 }

// HopCount returns the XY route length between two nodes.
func (m *Mesh) HopCount(src, dst int) int {
	sx, sy := src%m.width, src/m.width
	dx, dy := dst%m.width, dst/m.width
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
