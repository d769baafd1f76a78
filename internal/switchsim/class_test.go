package switchsim

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// ssvcGLFactory builds SSVC arbiters with an enabled, policed GL class.
func ssvcGLFactory(radix int, vticks []core.VTime, glVtick core.VTime, glBurst int) func(int) arb.Arbiter {
	return func(int) arb.Arbiter {
		return core.NewSSVC(core.Config{
			Radix:       radix,
			CounterBits: 12,
			SigBits:     4,
			Policy:      core.SubtractRealTime,
			Vticks:      vticks,
			EnableGL:    true,
			GLVtick:     glVtick,
			GLBurst:     glBurst,
		})
	}
}

func TestGLPolicingCapsLongRunRate(t *testing.T) {
	// An abusive GL source floods the switch; the leaky bucket must
	// hold its long-run throughput near the reserved rate (§3.2:
	// "safeguards in place to prevent its abuse") while GB service
	// continues.
	const glRate = 0.05
	glVtick := noc.FlowSpec{Rate: glRate, PacketLength: 2}.Vtick() // 40 cycles/packet
	vticks := make([]core.VTime, 8)
	for i := 0; i < 4; i++ {
		vticks[i] = noc.FlowSpec{Rate: 0.2, PacketLength: 8}.Vtick()
	}
	sw := mustNew(t, testConfig(), ssvcGLFactory(8, vticks, glVtick, 2))
	var seq traffic.Sequence
	for i := 0; i < 4; i++ {
		addFlow(t, sw, backloggedGB(&seq, i, 0, 8, 0.2))
	}
	glSpec := noc.FlowSpec{Src: 7, Dst: 0, Class: noc.GuaranteedLatency, Rate: glRate, PacketLength: 2}
	addFlow(t, sw, traffic.Flow{Spec: glSpec, Gen: traffic.NewBacklogged(&seq, glSpec, 8)})

	col := stats.NewCollector(2000, 52000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(52000)

	glGot := col.Throughput(stats.FlowKey{Src: 7, Dst: 0, Class: noc.GuaranteedLatency})
	if glGot > glRate*1.2 {
		t.Errorf("abusive GL flow got %.4f flits/cycle, policing should cap near %.2f", glGot, glRate)
	}
	if glGot < glRate*0.8 {
		t.Errorf("GL flow got %.4f flits/cycle, should still receive its reservation %.2f", glGot, glRate)
	}
	// GB flows keep their reservations despite the GL flood.
	for i := 0; i < 4; i++ {
		got := col.Throughput(stats.FlowKey{Src: i, Dst: 0, Class: noc.GuaranteedBandwidth})
		if got < 0.2*0.97 {
			t.Errorf("GB flow %d got %.4f, reserved 0.20", i, got)
		}
	}
}

func TestBEStarvedByStrictClassPriority(t *testing.T) {
	// §3: BE "has the lowest priority in the network" — saturated GB
	// traffic starves it completely, unlike LRG where it would share.
	vticks := make([]core.VTime, 8)
	vticks[0] = noc.FlowSpec{Rate: 0.5, PacketLength: 8}.Vtick()
	sw := mustNew(t, testConfig(), ssvcGLFactory(8, vticks, 0, 0))
	var seq traffic.Sequence
	addFlow(t, sw, backloggedGB(&seq, 0, 0, 8, 0.5))
	addFlow(t, sw, backloggedBE(&seq, 1, 0, 8))
	col := stats.NewCollector(1000, 21000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(21000)
	be := col.Throughput(stats.FlowKey{Src: 1, Dst: 0, Class: noc.BestEffort})
	if be > 0.001 {
		t.Errorf("BE flow got %.4f against saturated GB; strict priority should starve it", be)
	}
	gb := col.Throughput(stats.FlowKey{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth})
	if gb < 0.85 {
		t.Errorf("lone GB flow got %.4f, want the whole channel", gb)
	}
}

func TestBEUsesLeftoverWhenGBIdle(t *testing.T) {
	// With GB injecting at only half its reservation, BE soaks up the
	// leftover — work conservation across classes.
	vticks := make([]core.VTime, 8)
	vticks[0] = noc.FlowSpec{Rate: 0.4, PacketLength: 8}.Vtick()
	sw := mustNew(t, testConfig(), ssvcGLFactory(8, vticks, 0, 0))
	var seq traffic.Sequence
	gbSpec := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.4, PacketLength: 8}
	addFlow(t, sw, traffic.Flow{Spec: gbSpec, Gen: traffic.NewBernoulli(&seq, gbSpec, 0.2, 3)})
	addFlow(t, sw, backloggedBE(&seq, 1, 0, 8))
	col := stats.NewCollector(2000, 42000)
	sw.OnDeliver(col.OnDeliver)
	sw.Run(42000)
	be := col.Throughput(stats.FlowKey{Src: 1, Dst: 0, Class: noc.BestEffort})
	if be < 0.6 {
		t.Errorf("BE flow got %.4f of the leftover, want ~0.69 (8/9 - 0.2)", be)
	}
	gb := col.Throughput(stats.FlowKey{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth})
	if gb < 0.19 {
		t.Errorf("GB flow got %.4f, offered 0.20", gb)
	}
}

func TestChainingDoesNotBypassGL(t *testing.T) {
	// Chaining reuses the channel for the same crosspoint and class; a
	// pending GL packet must still preempt at the next arbitration.
	cfg := testConfig()
	cfg.PacketChaining = true
	vticks := make([]core.VTime, 8)
	vticks[0] = noc.FlowSpec{Rate: 0.5, PacketLength: 8}.Vtick()
	sw := mustNew(t, cfg, ssvcGLFactory(8, vticks, 0, 0))
	var seq traffic.Sequence
	addFlow(t, sw, backloggedGB(&seq, 0, 0, 8, 0.5))
	glSpec := noc.FlowSpec{Src: 7, Dst: 0, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
	addFlow(t, sw, traffic.Flow{Spec: glSpec, Gen: traffic.NewTrace(&seq, glSpec, []noc.Cycle{5000})})
	var glWait noc.Cycle
	var glSeen bool
	sw.OnDeliver(func(p *noc.Packet) {
		if p.Class == noc.GuaranteedLatency {
			glSeen = true
			glWait = p.WaitingTime()
		}
	})
	sw.Run(8000)
	if !glSeen {
		t.Fatal("GL packet not delivered")
	}
	// With chaining, the GB flow occupies the channel back to back; the
	// GL packet can still only wait out the packet in flight... unless
	// chaining re-grants without arbitration. Chaining happens at the
	// same crosspoint only, and the next arbitration must pick GL.
	if glWait > 10 {
		t.Fatalf("GL waited %d cycles behind a chained GB stream; chaining must not bypass class priority", glWait)
	}
}

func TestPreemptionAbortsAndRetransmits(t *testing.T) {
	// A low-rate flow's packet with a far-future stamp holds the
	// channel; a fresh high-priority packet preempts it mid-flight. The
	// victim retries from its queue head and still completes.
	vticks := []core.VTime{2000, 20, 0, 0, 0, 0, 0, 0}
	var pvc *arb.PVC
	sw, err := New(testConfig(), func(out int) arb.Arbiter {
		a := arb.NewPVC(8, vticks, 10)
		if out == 0 {
			pvc = a
		}
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	slow := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.004, PacketLength: 8}
	fast := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.4, PacketLength: 8}
	// The slow packet arrives first and starts transmitting; the fast
	// one arrives mid-flight with a much smaller stamp.
	addFlow(t, sw, traffic.Flow{Spec: slow, Gen: traffic.NewTrace(&seq, slow, []noc.Cycle{0})})
	addFlow(t, sw, traffic.Flow{Spec: fast, Gen: traffic.NewTrace(&seq, fast, []noc.Cycle{3})})
	var order []int
	sw.OnDeliver(func(p *noc.Packet) { order = append(order, p.Src) })
	sw.Run(100)
	if sw.Preempted != 1 {
		t.Fatalf("preempted = %d, want 1", sw.Preempted)
	}
	if pvc.Preemptions != 1 {
		t.Fatalf("arbiter counted %d preemptions, want 1", pvc.Preemptions)
	}
	if sw.WastedFlits == 0 {
		t.Fatal("preemption must waste the flits already sent")
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("delivery order %v, want fast (1) then retried slow (0)", order)
	}
	if sw.Delivered != 2 {
		t.Fatalf("delivered %d, want both packets", sw.Delivered)
	}
}

// TestOrigVCNeverPreempts: an output preempts only when its arbiter is
// an arb.Preemptor. Under original Virtual Clock, which is not, the same
// scenario lets the holder finish.
func TestOrigVCNeverPreempts(t *testing.T) {
	vticks := []core.VTime{2000, 20, 0, 0, 0, 0, 0, 0}
	sw, err := New(testConfig(), func(int) arb.Arbiter { return arb.NewOrigVC(8, vticks) })
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	slow := noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.004, PacketLength: 8}
	fast := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.4, PacketLength: 8}
	addFlow(t, sw, traffic.Flow{Spec: slow, Gen: traffic.NewTrace(&seq, slow, []noc.Cycle{0})})
	addFlow(t, sw, traffic.Flow{Spec: fast, Gen: traffic.NewTrace(&seq, fast, []noc.Cycle{3})})
	var order []int
	sw.OnDeliver(func(p *noc.Packet) { order = append(order, p.Src) })
	sw.Run(100)
	if sw.Preempted != 0 {
		t.Fatalf("preempted = %d under OrigVC", sw.Preempted)
	}
	if len(order) != 2 || order[0] != 0 {
		t.Fatalf("delivery order %v, want the holder (0) first", order)
	}
}
