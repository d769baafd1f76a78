package swizzleqos_test

import (
	"math"
	"strings"
	"testing"

	"swizzleqos"
)

func gbWorkload(src, dst int, rate float64, inject swizzleqos.Injection) swizzleqos.Workload {
	return swizzleqos.Workload{
		Spec: swizzleqos.FlowSpec{
			Src: src, Dst: dst,
			Class:        swizzleqos.GuaranteedBandwidth,
			Rate:         rate,
			PacketLength: 8,
		},
		Inject: inject,
	}
}

func TestQuickstartFlow(t *testing.T) {
	cfg := swizzleqos.DefaultConfig(8)
	net, err := swizzleqos.New(cfg,
		gbWorkload(0, 7, 0.25, swizzleqos.Inject.Bernoulli(0.20, 1)),
		gbWorkload(1, 7, 0.25, swizzleqos.Inject.Bernoulli(0.20, 2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(5000)
	net.StartMeasurement()
	net.Run(50000)
	rep := net.Report()
	if rep == nil {
		t.Fatal("nil report after StartMeasurement")
	}
	if rep.Window() != 50000 {
		t.Fatalf("window = %d, want 50000", rep.Window())
	}
	for _, src := range []int{0, 1} {
		k := swizzleqos.FlowKey{Src: src, Dst: 7, Class: swizzleqos.GuaranteedBandwidth}
		got := rep.Throughput(k)
		if got < 0.18 || got > 0.22 {
			t.Errorf("flow %d throughput %.3f, want ~0.20", src, got)
		}
	}
	if !strings.Contains(rep.Table(), "flits/cycle") {
		t.Error("report table missing header")
	}
}

func TestDefaultConfigBusWidths(t *testing.T) {
	cases := []struct{ radix, bus int }{{8, 128}, {16, 128}, {32, 128}, {64, 256}, {128, 1024}}
	for _, tc := range cases {
		if got := swizzleqos.DefaultConfig(tc.radix).BusWidthBits; got != tc.bus {
			t.Errorf("DefaultConfig(%d).BusWidthBits = %d, want %d", tc.radix, got, tc.bus)
		}
	}
}

func TestReservationsEnforcedUnderCongestion(t *testing.T) {
	cfg := swizzleqos.DefaultConfig(8)
	cfg.GL = swizzleqos.GLConfig{} // GB only
	var workloads []swizzleqos.Workload
	rates := []float64{0.25, 0.2, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05}
	for i, r := range rates {
		workloads = append(workloads, gbWorkload(i, 0, r, swizzleqos.Inject.Backlogged(4)))
	}
	net, err := swizzleqos.New(cfg, workloads...)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(5000)
	net.StartMeasurement()
	net.Run(60000)
	rep := net.Report()
	for i, r := range rates {
		k := swizzleqos.FlowKey{Src: i, Dst: 0, Class: swizzleqos.GuaranteedBandwidth}
		if got := rep.Throughput(k); got < r*0.97 {
			t.Errorf("flow %d accepted %.3f, reserved %.2f", i, got, r)
		}
	}
}

func TestGLInterruptLatency(t *testing.T) {
	cfg := swizzleqos.DefaultConfig(8)
	var workloads []swizzleqos.Workload
	for i := 0; i < 4; i++ {
		workloads = append(workloads, gbWorkload(i, 0, 0.2, swizzleqos.Inject.Backlogged(4)))
	}
	workloads = append(workloads, swizzleqos.Workload{
		Spec: swizzleqos.FlowSpec{
			Src: 7, Dst: 0,
			Class:        swizzleqos.GuaranteedLatency,
			Rate:         0.05,
			PacketLength: 2,
		},
		Inject: swizzleqos.Inject.Trace(10000, 20000, 30000),
	})
	net, err := swizzleqos.New(cfg, workloads...)
	if err != nil {
		t.Fatal(err)
	}
	var worst swizzleqos.Cycle
	var delivered int
	net.OnDeliver(func(p *swizzleqos.Packet) {
		if p.Class == swizzleqos.GuaranteedLatency {
			delivered++
			if w := p.WaitingTime(); w > worst {
				worst = w
			}
		}
	})
	net.Run(40000)
	if delivered != 3 {
		t.Fatalf("delivered %d GL packets, want 3", delivered)
	}
	if worst > 12 {
		t.Fatalf("GL worst wait %d cycles; should only wait for channel release", worst)
	}
}

func TestArbitrationFamilies(t *testing.T) {
	for _, fam := range []swizzleqos.Arbitration{
		swizzleqos.SSVC, swizzleqos.LRG, swizzleqos.RoundRobin,
		swizzleqos.OriginalVirtualClock, swizzleqos.FixedPriority,
	} {
		cfg := swizzleqos.DefaultConfig(4)
		cfg.Arbitration = fam
		net, err := swizzleqos.New(cfg, gbWorkload(0, 1, 0.2, swizzleqos.Inject.Bernoulli(0.1, 3)))
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		net.StartMeasurement()
		net.Run(20000)
		if net.Report().TotalPackets() == 0 {
			t.Errorf("%v: no packets delivered", fam)
		}
	}
}

func TestArbitrationString(t *testing.T) {
	if swizzleqos.SSVC.String() != "SSVC" || swizzleqos.Arbitration(99).String() != "Arbitration(99)" {
		t.Error("Arbitration.String misbehaves")
	}
}

// TestNewNamesLowestOversubscribedOutput: with three oversubscribed
// outputs, the error names the lowest of them on every call.
func TestNewNamesLowestOversubscribedOutput(t *testing.T) {
	var over []swizzleqos.Workload
	for i, dst := range []int{5, 2, 6} {
		over = append(over, gbWorkload(2*i, dst, 0.6, swizzleqos.Inject.Backlogged(1)),
			gbWorkload(2*i+1, dst, 0.6, swizzleqos.Inject.Backlogged(1)))
	}
	for i := 0; i < 100; i++ {
		if _, err := swizzleqos.New(swizzleqos.DefaultConfig(8), over...); err == nil || !strings.Contains(err.Error(), "output 2 oversubscribed") {
			t.Fatalf("call %d: error %v, want one naming output 2", i, err)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cfg := swizzleqos.DefaultConfig(8)
	if _, err := swizzleqos.New(cfg); err == nil {
		t.Error("no workloads accepted")
	}
	// Oversubscribed output.
	var over []swizzleqos.Workload
	for i := 0; i < 8; i++ {
		over = append(over, gbWorkload(i, 0, 0.13, swizzleqos.Inject.Backlogged(1)))
	}
	if _, err := swizzleqos.New(cfg, over...); err == nil {
		t.Error("oversubscribed reservations accepted (1.04 + GL 0.05)")
	}
	// Invalid spec.
	bad := gbWorkload(9, 0, 0.1, swizzleqos.Inject.Backlogged(1))
	if _, err := swizzleqos.New(cfg, bad); err == nil {
		t.Error("out-of-range source accepted")
	}
	// SigBits beyond the lane budget.
	cfg2 := swizzleqos.DefaultConfig(8)
	cfg2.SigBits = 5 // needs 32 GB lanes; a 128-bit bus has 16 lanes total
	if _, err := swizzleqos.New(cfg2, gbWorkload(0, 1, 0.1, swizzleqos.Inject.Backlogged(1))); err == nil {
		t.Error("oversized SigBits accepted")
	}
	// Narrow bus with three classes.
	cfg3 := swizzleqos.DefaultConfig(64)
	cfg3.BusWidthBits = 128
	if _, err := swizzleqos.New(cfg3, gbWorkload(0, 1, 0.1, swizzleqos.Inject.Backlogged(1))); err == nil {
		t.Error("radix-64/128-bit with three classes accepted")
	}
}

// An injection rate the generators cannot realise is an error from New,
// not a panic — and not, as a NaN Bernoulli rate used to be, a Run that
// never returns from its first cycle. 8-flit packets: more than 8
// flits/cycle is more than a packet per cycle.
func TestNewRejectsBadInjectionRates(t *testing.T) {
	cfg := swizzleqos.DefaultConfig(8)
	for name, inj := range map[string]swizzleqos.Injection{
		"bernoulli NaN":      swizzleqos.Inject.Bernoulli(math.NaN(), 1),
		"bernoulli +Inf":     swizzleqos.Inject.Bernoulli(math.Inf(1), 1),
		"bernoulli -Inf":     swizzleqos.Inject.Bernoulli(math.Inf(-1), 1),
		"bernoulli negative": swizzleqos.Inject.Bernoulli(-0.1, 1),
		"bernoulli > length": swizzleqos.Inject.Bernoulli(8.5, 1),
		"bursty NaN rate":    swizzleqos.Inject.Bursty(math.NaN(), 4, 1),
		"bursty +Inf rate":   swizzleqos.Inject.Bursty(math.Inf(1), 4, 1),
		"bursty zero rate":   swizzleqos.Inject.Bursty(0, 4, 1),
		"bursty rate > 1":    swizzleqos.Inject.Bursty(1.5, 4, 1),
		"bursty NaN burst":   swizzleqos.Inject.Bursty(0.2, math.NaN(), 1),
		"bursty +Inf burst":  swizzleqos.Inject.Bursty(0.2, math.Inf(1), 1),
		"bursty short burst": swizzleqos.Inject.Bursty(0.2, 0.5, 1),
	} {
		net, err := swizzleqos.New(cfg, gbWorkload(0, 1, 0.2, inj))
		if err == nil || net != nil {
			t.Errorf("%s: New returned (%v, %v), want an error", name, net, err)
		} else if !strings.Contains(err.Error(), "flow 0->1") {
			t.Errorf("%s: error %q does not name the flow", name, err)
		}
	}
	// The edges of the range are fine: a packet every cycle, and silence.
	for _, rate := range []float64{0, 8} {
		net, err := swizzleqos.New(cfg, gbWorkload(0, 1, 0.2, swizzleqos.Inject.Bernoulli(rate, 1)))
		if err != nil {
			t.Fatalf("rate %g refused: %v", rate, err)
		}
		net.Run(100)
	}
}

func TestReportBeforeMeasurement(t *testing.T) {
	net, err := swizzleqos.New(swizzleqos.DefaultConfig(4),
		gbWorkload(0, 1, 0.1, swizzleqos.Inject.Backlogged(1)))
	if err != nil {
		t.Fatal(err)
	}
	if net.Report() != nil {
		t.Error("report before StartMeasurement should be nil")
	}
}

func TestGLBurstSizesExported(t *testing.T) {
	budgets, err := swizzleqos.GLBurstSizes(8, []float64{100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(budgets) != 2 || budgets[0].MaxPackets <= 0 {
		t.Fatalf("unexpected budgets: %+v", budgets)
	}
}

func TestHardwareModelsExported(t *testing.T) {
	s := swizzleqos.Table1Storage()
	if s.TotalBytes()/1024 != 1101 {
		t.Fatalf("Table 1 total = %g KB, want 1101", s.TotalBytes()/1024)
	}
	tm := swizzleqos.TimingModel{Radix: 8, ChannelBits: 256}
	if tm.SlowdownPercent() < 8.3 || tm.SlowdownPercent() > 8.5 {
		t.Fatalf("slowdown = %.2f, want ~8.4", tm.SlowdownPercent())
	}
}

func TestPacketChaining(t *testing.T) {
	cfg := swizzleqos.DefaultConfig(4)
	cfg.PacketChaining = true
	cfg.GL = swizzleqos.GLConfig{}
	var ws []swizzleqos.Workload
	for i := 0; i < 4; i++ {
		ws = append(ws, gbWorkload(i, 0, 0.2, swizzleqos.Inject.Backlogged(4)))
	}
	net, err := swizzleqos.New(cfg, ws...)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(2000)
	net.StartMeasurement()
	net.Run(20000)
	if got := net.Report().OutputThroughput(0); got < 0.99 {
		t.Fatalf("chained saturated throughput %.3f, want ~1.0", got)
	}
}

func TestInjectionConstructors(t *testing.T) {
	b := swizzleqos.Inject.Bursty(0.2, 4, 7)
	if b.Kind != swizzleqos.InjectBursty || b.Rate != 0.2 || b.MeanBurst != 4 || b.Seed != 7 {
		t.Fatalf("Bursty constructor wrong: %+v", b)
	}
	p := swizzleqos.Inject.Periodic(100, 3)
	if p.Kind != swizzleqos.InjectPeriodic || p.Interval != 100 || p.Offset != 3 {
		t.Fatalf("Periodic constructor wrong: %+v", p)
	}
	tr := swizzleqos.Inject.Trace(1, 2, 3)
	if tr.Kind != swizzleqos.InjectTrace || len(tr.Times) != 3 {
		t.Fatalf("Trace constructor wrong: %+v", tr)
	}
}

func TestAllInjectionKindsRun(t *testing.T) {
	// Exercise every generator kind through the public constructor path.
	cfg := swizzleqos.DefaultConfig(8)
	spec := func(src int) swizzleqos.FlowSpec {
		return swizzleqos.FlowSpec{Src: src, Dst: 0, Class: swizzleqos.GuaranteedBandwidth,
			Rate: 0.05, PacketLength: 4}
	}
	net, err := swizzleqos.New(cfg,
		swizzleqos.Workload{Spec: spec(0), Inject: swizzleqos.Inject.Bernoulli(0.05, 1)},
		swizzleqos.Workload{Spec: spec(1), Inject: swizzleqos.Inject.Bursty(0.05, 3, 2)},
		swizzleqos.Workload{Spec: spec(2), Inject: swizzleqos.Inject.Periodic(100, 5)},
		swizzleqos.Workload{Spec: spec(3), Inject: swizzleqos.Inject.Backlogged(2)},
		swizzleqos.Workload{Spec: spec(4), Inject: swizzleqos.Inject.Trace(10, 20, 30)},
	)
	if err != nil {
		t.Fatal(err)
	}
	net.StartMeasurement()
	net.Run(20000)
	rep := net.Report()
	if len(rep.Flows()) != 5 {
		t.Fatalf("observed %d flows, want all 5 injection kinds delivering", len(rep.Flows()))
	}
	for _, k := range rep.Flows() {
		if rep.Flow(k) == nil || rep.Flow(k).Packets == 0 {
			t.Errorf("flow %v delivered nothing", k)
		}
	}
	if net.Now() != 20000 {
		t.Errorf("Now() = %d, want 20000", net.Now())
	}
	if got := net.Config(); got.Radix != 8 || got.SigBits == 0 {
		t.Errorf("Config() not default-filled: %+v", got)
	}
	// Unknown injection kind is rejected.
	if _, err := swizzleqos.New(cfg, swizzleqos.Workload{
		Spec:   spec(5),
		Inject: swizzleqos.Injection{Kind: swizzleqos.InjectionKind(99)},
	}); err == nil {
		t.Error("unknown injection kind accepted")
	}
}

func TestArbitrationStrings(t *testing.T) {
	want := map[swizzleqos.Arbitration]string{
		swizzleqos.SSVC:                 "SSVC",
		swizzleqos.LRG:                  "LRG",
		swizzleqos.RoundRobin:           "RoundRobin",
		swizzleqos.OriginalVirtualClock: "OriginalVirtualClock",
		swizzleqos.FixedPriority:        "FixedPriority",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestConfigDefaultsCapSigBits(t *testing.T) {
	// A very wide bus would allow 6 significant bits; the default caps
	// at the paper's 4.
	cfg := swizzleqos.DefaultConfig(8)
	cfg.BusWidthBits = 1024
	net, err := swizzleqos.New(cfg, gbWorkload(0, 1, 0.1, swizzleqos.Inject.Backlogged(1)))
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Config().SigBits; got != 4 {
		t.Errorf("defaulted SigBits = %d, want 4", got)
	}
	if got := net.Config().CounterBits; got != 12 {
		t.Errorf("defaulted CounterBits = %d, want 12", got)
	}
}

func TestStartSeries(t *testing.T) {
	net, err := swizzleqos.New(swizzleqos.DefaultConfig(4),
		gbWorkload(0, 1, 0.2, swizzleqos.Inject.Backlogged(2)))
	if err != nil {
		t.Fatal(err)
	}
	series := net.StartSeries(1000)
	net.Run(5000)
	if series.Windows() < 4 {
		t.Fatalf("observed %d windows, want >= 4", series.Windows())
	}
	k := swizzleqos.FlowKey{Src: 0, Dst: 1, Class: swizzleqos.GuaranteedBandwidth}
	if got := series.Throughput(k, 2); got < 0.8 {
		t.Fatalf("window 2 throughput %.3f, want saturated ~8/9", got)
	}
}
