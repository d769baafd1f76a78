package switchsim

import (
	"math"
	"strings"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

func testConfig() Config {
	return Config{Radix: 8, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}
}

func lrgFactory(radix int) func(int) arb.Arbiter {
	return func(int) arb.Arbiter { return arb.NewLRG(radix) }
}

func ssvcFactory(radix int, vticks []core.VTime) func(int) arb.Arbiter {
	return func(int) arb.Arbiter {
		return core.NewSSVC(core.Config{
			Radix:       radix,
			CounterBits: 12,
			SigBits:     4,
			Policy:      core.SubtractRealTime,
			Vticks:      vticks,
		})
	}
}

func mustNew(t *testing.T, cfg Config, f func(int) arb.Arbiter) *Switch {
	t.Helper()
	sw, err := New(cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func addFlow(t *testing.T, sw *Switch, f traffic.Flow) {
	t.Helper()
	if err := sw.AddFlow(f); err != nil {
		t.Fatal(err)
	}
}

func backloggedGB(seq *traffic.Sequence, src, dst, length int, rate float64) traffic.Flow {
	spec := noc.FlowSpec{Src: src, Dst: dst, Class: noc.GuaranteedBandwidth, Rate: rate, PacketLength: length}
	return traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}
}

func backloggedBE(seq *traffic.Sequence, src, dst, length int) traffic.Flow {
	spec := noc.FlowSpec{Src: src, Dst: dst, Class: noc.BestEffort, PacketLength: length}
	return traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}
}

func TestSinglePacketTiming(t *testing.T) {
	// One 8-flit packet injected at cycle 0: admitted and arbitrated in
	// cycle 0 (the arbitration cycle), flits move in cycles 1-8, and the
	// packet completes at cycle 8 — nine cycles of channel occupancy for
	// eight flits of payload.
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	spec := noc.FlowSpec{Src: 0, Dst: 3, Class: noc.BestEffort, PacketLength: 8}
	addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewTrace(&seq, spec, []noc.Cycle{0})})

	var got *noc.Packet
	sw.OnDeliver(func(p *noc.Packet) { got = p })
	sw.Run(20)
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.EnqueuedAt != 0 || got.GrantedAt != 0 || got.DeliveredAt != 8 {
		t.Fatalf("timestamps enq=%d grant=%d deliver=%d, want 0/0/8",
			got.EnqueuedAt, got.GrantedAt, got.DeliveredAt)
	}
	if sw.ArbCycles != 1 || sw.DataCycles != 8 {
		t.Fatalf("arb=%d data=%d cycles, want 1/8", sw.ArbCycles, sw.DataCycles)
	}
}

func TestThroughputCeilingWithoutChaining(t *testing.T) {
	// The arbitration cycle caps a saturated output at L/(L+1): 8-flit
	// packets top out at 0.889 flits/cycle (Figure 4's ceiling).
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	for i := 0; i < 8; i++ {
		addFlow(t, sw, backloggedBE(&seq, i, 0, 8))
	}
	col := stats.NewCollector(1000, 11000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(11000)
	got := col.OutputThroughput(0)
	want := 8.0 / 9
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("saturated throughput %.4f, want ~%.4f", got, want)
	}
}

func TestPacketChainingRecoversArbitrationCycle(t *testing.T) {
	var seq traffic.Sequence
	cfg := testConfig()
	cfg.PacketChaining = true
	sw := mustNew(t, cfg, lrgFactory(8))
	for i := 0; i < 8; i++ {
		addFlow(t, sw, backloggedBE(&seq, i, 0, 8))
	}
	col := stats.NewCollector(1000, 11000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(11000)
	got := col.OutputThroughput(0)
	if got < 0.99 {
		t.Fatalf("chained throughput %.4f, want ~1.0", got)
	}
	if sw.Chained == 0 {
		t.Fatal("no packets were chained")
	}
}

func TestLRGEqualSharingUnderCongestion(t *testing.T) {
	// Figure 4(a): without QoS, all saturated flows converge to an
	// equal share.
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	for i := 0; i < 8; i++ {
		addFlow(t, sw, backloggedBE(&seq, i, 0, 8))
	}
	col := stats.NewCollector(2000, 20000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(20000)
	want := 8.0 / 9 / 8
	for i := 0; i < 8; i++ {
		got := col.Throughput(stats.FlowKey{Src: i, Dst: 0, Class: noc.BestEffort})
		if math.Abs(got-want) > 0.01 {
			t.Errorf("flow %d throughput %.4f, want ~%.4f", i, got, want)
		}
	}
}

func TestSSVCReservedRatesEndToEnd(t *testing.T) {
	// Figure 4(b) in miniature: saturated GB flows with reservations
	// that fit in the channel each receive at least their reservation.
	rates := []float64{0.3, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05}
	vticks := make([]core.VTime, 8)
	var seq traffic.Sequence
	for i, r := range rates {
		vticks[i] = noc.FlowSpec{Rate: r, PacketLength: 8}.Vtick()
	}
	sw := mustNew(t, testConfig(), ssvcFactory(8, vticks))
	for i, r := range rates {
		addFlow(t, sw, backloggedGB(&seq, i, 0, 8, r))
	}
	col := stats.NewCollector(5000, 55000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(55000)
	for i, r := range rates {
		got := col.Throughput(stats.FlowKey{Src: i, Dst: 0, Class: noc.GuaranteedBandwidth})
		if got < r*0.98 {
			t.Errorf("flow %d accepted %.4f flits/cycle, reserved %.2f", i, got, r)
		}
	}
	if total := col.OutputThroughput(0); total < 8.0/9*0.99 {
		t.Errorf("total %.4f, channel should stay saturated", total)
	}
}

func TestBackpressureLimitsAdmission(t *testing.T) {
	// A 16-flit GB queue holds at most two 8-flit packets; the source
	// queue backs up behind it.
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	spec := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLength: 8}
	addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 8)})
	sw.Run(50)
	// Service drains one packet at a time, so at steady state the queue
	// hovers near full and the source queue is backed up to the
	// generator's depth.
	if got := sw.BufferOccupancy(0, noc.GuaranteedBandwidth, 0); got < 8 {
		t.Fatalf("GB buffer occupancy %d flits, want near capacity", got)
	}
	if got := sw.SourceQueueLen(0); got < 4 {
		t.Fatalf("source queue %d packets, want backed up toward depth 8", got)
	}
}

func TestInputSendsToOneOutputAtATime(t *testing.T) {
	// One input with traffic to every output can still use only its
	// single input channel: aggregate throughput ~L/(L+1) flits/cycle,
	// not radix times that.
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	for o := 0; o < 8; o++ {
		addFlow(t, sw, backloggedGB(&seq, 0, o, 8, 0.1))
	}
	col := stats.NewCollector(1000, 11000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(11000)
	var total float64
	for o := 0; o < 8; o++ {
		total += col.OutputThroughput(o)
	}
	if total > 8.0/9+0.02 {
		t.Fatalf("one input delivered %.4f flits/cycle across outputs; channel limit is %.4f", total, 8.0/9)
	}
	if total < 0.8 {
		t.Fatalf("one input delivered only %.4f flits/cycle; it should keep its channel busy", total)
	}
}

func TestVOQsAvoidCrossOutputHOLBlocking(t *testing.T) {
	// Two inputs: input 0 sends GB to outputs 0 and 1; input 1 saturates
	// output 0. Input 0's packets for output 1 must not starve behind
	// its output-0 queue.
	var seq traffic.Sequence
	cfg := testConfig()
	cfg.Radix = 2
	sw := mustNew(t, cfg, lrgFactory(2))
	addFlow(t, sw, backloggedGB(&seq, 0, 0, 8, 0.4))
	addFlow(t, sw, backloggedGB(&seq, 0, 1, 8, 0.4))
	addFlow(t, sw, backloggedGB(&seq, 1, 0, 8, 0.4))
	col := stats.NewCollector(1000, 21000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(21000)
	out1 := col.Throughput(stats.FlowKey{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth})
	if out1 < 0.3 {
		t.Fatalf("flow 0->1 got %.4f flits/cycle; VOQ round-robin should give it roughly half the input channel", out1)
	}
}

func TestGLPriorityAndLatency(t *testing.T) {
	// A GL interrupt cuts ahead of saturated GB traffic: its waiting
	// time is bounded by draining the in-flight packet, not the queue.
	rates := []float64{0.2, 0.2, 0.2, 0.2, 0, 0, 0, 0}
	vticks := make([]core.VTime, 8)
	for i, r := range rates {
		if r > 0 {
			vticks[i] = noc.FlowSpec{Rate: r, PacketLength: 8}.Vtick()
		}
	}
	var seq traffic.Sequence
	sw, err := New(testConfig(), func(int) arb.Arbiter {
		return core.NewSSVC(core.Config{
			Radix: 8, CounterBits: 12, SigBits: 4,
			Policy: core.SubtractRealTime, Vticks: vticks,
			EnableGL: true, GLVtick: 40, GLBurst: 4,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		addFlow(t, sw, backloggedGB(&seq, i, 0, 8, rates[i]))
	}
	glSpec := noc.FlowSpec{Src: 7, Dst: 0, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
	addFlow(t, sw, traffic.Flow{Spec: glSpec, Gen: traffic.NewTrace(&seq, glSpec, []noc.Cycle{5000, 6000, 7000})})

	var worstWait noc.Cycle
	var glDelivered int
	sw.OnDeliver(func(p *noc.Packet) {
		if p.Class == noc.GuaranteedLatency {
			glDelivered++
			if w := p.WaitingTime(); w > worstWait {
				worstWait = w
			}
		}
	})
	sw.Run(10000)
	if glDelivered != 3 {
		t.Fatalf("delivered %d GL packets, want 3", glDelivered)
	}
	// Worst case: wait out one 8-flit GB packet plus an arbitration
	// cycle or two.
	if worstWait > 12 {
		t.Fatalf("GL waiting time %d cycles; should only wait for channel release (~9)", worstWait)
	}
}

func TestDeliveredPacketsPreserveFlowFIFO(t *testing.T) {
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	spec := noc.FlowSpec{Src: 2, Dst: 5, Class: noc.BestEffort, PacketLength: 4}
	addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, 0.3, 11)})
	var last uint64
	sw.OnDeliver(func(p *noc.Packet) {
		if p.ID <= last {
			t.Fatalf("packet %d delivered after %d: FIFO order violated", p.ID, last)
		}
		last = p.ID
	})
	sw.Run(5000)
	if last == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestConservation(t *testing.T) {
	// Every admitted packet is eventually delivered once injection
	// stops and the switch drains.
	var seq traffic.Sequence
	sw := mustNew(t, testConfig(), lrgFactory(8))
	for i := 0; i < 8; i++ {
		spec := noc.FlowSpec{Src: i, Dst: (i + 3) % 8, Class: noc.BestEffort, PacketLength: 4}
		addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewTrace(&seq, spec, []noc.Cycle{0, 10, 20, 30})})
	}
	sw.Run(2000)
	if sw.Delivered != sw.Admitted || sw.Admitted != sw.Injected {
		t.Fatalf("injected %d admitted %d delivered %d; all must match after drain",
			sw.Injected, sw.Admitted, sw.Delivered)
	}
	if sw.Delivered != 32 {
		t.Fatalf("delivered %d packets, want 32", sw.Delivered)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Radix: 1, BEBufferFlits: 8},
		{Radix: 8, BEBufferFlits: -1},
		{Radix: 8},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Radix: 4, BEBufferFlits: 8}, nil); err == nil {
		t.Error("nil arbiter factory accepted")
	}
	// Shards is a stub: the switch runs one serial cycle.
	for _, shards := range []int{0, 1} {
		if _, err := New(Config{Radix: 4, BEBufferFlits: 8, Shards: shards}, lrgFactory(4)); err != nil {
			t.Errorf("Shards %d refused: %v", shards, err)
		}
	}
	if _, err := New(Config{Radix: 4, BEBufferFlits: 8, Shards: 2}, lrgFactory(4)); err == nil || !strings.Contains(err.Error(), "Shards") {
		t.Errorf("Shards 2: got %v, want an error naming Shards", err)
	}
}

func TestAddFlowValidation(t *testing.T) {
	sw := mustNew(t, testConfig(), lrgFactory(8))
	if err := sw.AddFlow(traffic.Flow{Spec: noc.FlowSpec{Src: 99, Dst: 0, PacketLength: 4}}); err == nil {
		t.Error("out-of-range src accepted")
	}
	if err := sw.AddFlow(traffic.Flow{Spec: noc.FlowSpec{Src: 0, Dst: 0, Class: noc.BestEffort, PacketLength: 4}}); err == nil {
		t.Error("nil generator accepted")
	}
}

// tickOnly hides every face of a generator but Tick.
type tickOnly struct{ traffic.Generator }

// TestAddFlowRefusesPolledGenerator: the switch's sources run from the
// arrival calendar alone, so a generator that cannot schedule is refused,
// and the refusal takes no flow index.
func TestAddFlowRefusesPolledGenerator(t *testing.T) {
	sw := mustNew(t, testConfig(), lrgFactory(8))
	var seq traffic.Sequence
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	err := sw.AddFlow(traffic.Flow{Spec: spec, Gen: tickOnly{traffic.NewBernoulli(&seq, spec, 0.5, 1)}})
	if err == nil || !strings.Contains(err.Error(), "scheduling generator") || sw.Flows() != 0 {
		t.Fatalf("a Tick-only generator: AddFlow returned %v with %d flows attached", err, sw.Flows())
	}
	if err := sw.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, 0.5, 1)}); err != nil || sw.Flows() != 1 {
		t.Fatalf("the same generator with its schedule: AddFlow returned %v with %d flows attached", err, sw.Flows())
	}
}

// TestAddFlowRejectsOversizedPackets: a packet enters its class's buffer
// whole, so a flow whose packets are longer than that buffer could never
// be admitted. It used to be accepted and its source queue grew for ever.
func TestAddFlowRejectsOversizedPackets(t *testing.T) {
	cfg := Config{Radix: 4, BEBufferFlits: 4, GLBufferFlits: 0, GBBufferFlits: 8}
	for _, tc := range []struct {
		name    string
		class   noc.Class
		length  int
		wantErr bool
	}{
		{name: "beFitsExactly", class: noc.BestEffort, length: 4},
		{name: "beOneOver", class: noc.BestEffort, length: 5, wantErr: true},
		{name: "gbFitsExactly", class: noc.GuaranteedBandwidth, length: 8},
		{name: "gbOneOver", class: noc.GuaranteedBandwidth, length: 9, wantErr: true},
		{name: "glZeroCapacityClass", class: noc.GuaranteedLatency, length: 1, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw := mustNew(t, cfg, lrgFactory(4))
			var seq traffic.Sequence
			spec := noc.FlowSpec{Src: 0, Dst: 1, Class: tc.class, PacketLength: tc.length}
			if tc.class != noc.BestEffort {
				spec.Rate = 0.5
			}
			err := sw.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBernoulli(&seq, spec, 0.5, 1)})
			if tc.wantErr {
				if err == nil {
					t.Fatalf("AddFlow accepted %d-flit %v packets: buffers %+v", tc.length, tc.class, cfg)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sw.Run(2000)
			if sw.Admitted == 0 || sw.Delivered == 0 {
				t.Fatalf("a flow that fits admitted %d and delivered %d of %d injected", sw.Admitted, sw.Delivered, sw.Injected)
			}
		})
	}
}
