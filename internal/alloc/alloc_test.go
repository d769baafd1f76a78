package alloc

import (
	"strings"
	"testing"

	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
)

func gb(src, dst int, rate float64, length int) noc.FlowSpec {
	return noc.FlowSpec{Src: src, Dst: dst, Class: noc.GuaranteedBandwidth,
		Rate: rate, PacketLength: length}
}

func baseReq() Requirements {
	return Requirements{
		Radix:        8,
		BusWidthBits: 128,
		GB: []noc.FlowSpec{
			gb(0, 0, 0.40, 8),
			gb(1, 0, 0.20, 8),
			gb(2, 0, 0.10, 8),
		},
		GL: []GLRequirement{
			{Src: 6, Dst: 0, PacketLength: 4, LatencyBound: 200, BurstPackets: 4},
			{Src: 7, Dst: 0, PacketLength: 4, LatencyBound: 400, BurstPackets: 4},
		},
	}
}

func TestBuildHappyPath(t *testing.T) {
	plan, err := Build(baseReq())
	if err != nil {
		t.Fatal(err)
	}
	if plan.SigBits != 3 || plan.CounterBits != 11 {
		t.Fatalf("derived counters %d+%d, want 3 sig + 11 total", plan.SigBits, plan.CounterBits)
	}
	p := plan.Outputs[0]
	if p == nil {
		t.Fatal("no plan for output 0")
	}
	if p.Vticks[0] != 20 || p.Vticks[1] != 40 || p.Vticks[2] != 80 {
		t.Fatalf("vticks = %v", p.Vticks[:3])
	}
	if p.GBReserved < 0.699 || p.GBReserved > 0.701 {
		t.Fatalf("GB reserved = %g, want 0.70", p.GBReserved)
	}
	if p.GLBufferFlits != 16 {
		t.Fatalf("GL buffer = %d flits, want 16 (4 packets x 4 flits)", p.GLBufferFlits)
	}
	if p.GLReserved < 0.05 {
		t.Fatalf("GL reserved = %g, want >= 0.05", p.GLReserved)
	}
	// Eq. 1 with lmax=8, lmin=4, NGL=2, b=16: 8 + 2*(16+4) = 48.
	if p.WorstGLWait != 48 {
		t.Fatalf("worst GL wait = %g, want 48", p.WorstGLWait)
	}
	if p.GLBurst != 8 {
		t.Fatalf("GL policing burst = %d, want 8 packets", p.GLBurst)
	}
}

func TestBuildSSVCConfigRoundTrip(t *testing.T) {
	plan, err := Build(baseReq())
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan.SSVCConfig(0)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("planned config invalid: %v", err)
	}
	if !cfg.EnableGL {
		t.Fatal("GL lane not enabled")
	}
	s := core.NewSSVC(cfg) // must not panic
	if s.Levels() != 8 {
		t.Fatalf("levels = %d, want 8", s.Levels())
	}
	// Outputs without any reservation still get a valid config.
	other := plan.SSVCConfig(5)
	if err := other.Validate(); err != nil {
		t.Fatalf("empty-output config invalid: %v", err)
	}
}

// TestBuildNamesLowestBadOutput: with GL contracts that no plan can meet
// on three outputs, the error names the lowest of them on every call.
func TestBuildNamesLowestBadOutput(t *testing.T) {
	req := Requirements{Radix: 8, BusWidthBits: 128}
	for i, dst := range []int{5, 2, 6} { // each bound below the 4-cycle channel release
		req.GL = append(req.GL, GLRequirement{Src: i, Dst: dst, PacketLength: 4, LatencyBound: 1, BurstPackets: 1})
	}
	for i := 0; i < 100; i++ {
		if _, err := Build(req); err == nil || !strings.HasPrefix(err.Error(), "alloc: output 2 ") {
			t.Fatalf("call %d: error %v, want one naming output 2", i, err)
		}
	}
}

func TestBuildRejectsOversubscription(t *testing.T) {
	req := baseReq()
	req.GB = append(req.GB, gb(3, 0, 0.30, 8)) // 1.0 GB + >=0.05 GL
	if _, err := Build(req); err == nil {
		t.Fatal("oversubscribed output accepted")
	}
}

func TestBuildStrictCapacity(t *testing.T) {
	req := baseReq()
	req.GL = nil
	req.GB = []noc.FlowSpec{gb(0, 0, 0.50, 8), gb(1, 0, 0.42, 8)} // 0.92 > 8/9
	if _, err := Build(req); err != nil {
		t.Fatalf("nominal capacity should accept 0.92: %v", err)
	}
	req.StrictCapacity = true
	if _, err := Build(req); err == nil {
		t.Fatal("strict capacity should reject 0.92 > 8/9")
	}
}

func TestBuildRejectsDuplicateCrosspoint(t *testing.T) {
	req := baseReq()
	req.GB = append(req.GB, gb(0, 0, 0.05, 8))
	if _, err := Build(req); err == nil {
		t.Fatal("duplicate crosspoint reservation accepted")
	}
}

func TestBuildClampsOversizedVtick(t *testing.T) {
	req := baseReq()
	req.GL = nil
	// A 1% flow with 8-flit packets needs Vtick 800 > 255: the register
	// clamps at 255 and the flow is over-entitled (8/255 ~ 3.1%), which
	// the implied budget absorbs without coarsening anyone.
	req.GB = []noc.FlowSpec{gb(0, 0, 0.01, 8), gb(1, 0, 0.40, 8)}
	plan, err := Build(req)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Outputs[0]
	if p.Granularity != 1 {
		t.Fatalf("granularity = %d, want 1 (clamping suffices)", p.Granularity)
	}
	if p.Vticks[0] != 255 {
		t.Fatalf("clamped vtick = %d, want 255", p.Vticks[0])
	}
	if p.Implied[0] < 0.01 || p.Implied[0] > 0.04 {
		t.Fatalf("implied entitlement = %g, want ~8/255", p.Implied[0])
	}
	// The big flow's register is floor-rounded so its entitlement is at
	// least the reservation: vtick 8/0.40 = 20 exactly.
	if p.Vticks[1] != 20 || p.Implied[1] < 0.40 {
		t.Fatalf("vtick[1]=%d implied %g, want 20 / >= 0.40", p.Vticks[1], p.Implied[1])
	}
}

func TestBuildCoarsensWhenClampingOversubscribes(t *testing.T) {
	req := baseReq()
	req.GL = nil
	// Seven 0.5% flows with 16-flit packets (Vtick 3200 each) clamp to
	// 255 and would be over-entitled to 16/255 ~ 6.3% each; together
	// with a 55% flow the implied total exceeds the strict channel
	// capacity (16/17), forcing a coarser tick granularity.
	req.StrictCapacity = true
	req.GB = nil
	for i := 0; i < 7; i++ {
		req.GB = append(req.GB, gb(i, 0, 0.005, 16))
	}
	req.GB = append(req.GB, gb(7, 0, 0.55, 16))
	plan, err := Build(req)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Outputs[0]
	if p.Granularity < 2 {
		t.Fatalf("granularity = %d, want >= 2 (clamped entitlements oversubscribe at 1)", p.Granularity)
	}
	if len(plan.Warnings) == 0 || !strings.Contains(plan.Warnings[0], "granularity") {
		t.Fatalf("expected a granularity warning, got %v", plan.Warnings)
	}
	// Entitlements still cover every reservation and fit the budget.
	var total float64
	for i, f := range req.GB {
		if p.Implied[f.Src] < f.Rate {
			t.Errorf("flow %d implied %g below reservation %g", i, p.Implied[f.Src], f.Rate)
		}
		total += p.Implied[f.Src]
	}
	if total > 1 {
		t.Fatalf("implied total %g exceeds the channel", total)
	}
	// SSVCConfig scales the coarsened ticks back to cycles; floor
	// rounding may shave up to one granularity step off the nominal
	// 16/0.55 = 29 cycles.
	if got := plan.SSVCConfig(0).Vticks[7]; got < 27 || got > 29 {
		t.Fatalf("config vtick for the 55%% flow = %d cycles, want 27-29", got)
	}
}

func TestBuildRejectsImpossibleLatencyBound(t *testing.T) {
	req := baseReq()
	// Bound below the channel-release time (an 8-flit GB packet).
	req.GL = []GLRequirement{{Src: 7, Dst: 0, PacketLength: 4, LatencyBound: 6, BurstPackets: 1}}
	if _, err := Build(req); err == nil {
		t.Fatal("bound below lmax accepted")
	}
}

func TestBuildRejectsOversizedBurst(t *testing.T) {
	req := baseReq()
	// 32 packets of 4 flits against a 200-cycle bound: tau_GL explodes
	// and the burst budget cannot cover it either.
	req.GL = []GLRequirement{
		{Src: 6, Dst: 0, PacketLength: 4, LatencyBound: 200, BurstPackets: 32},
		{Src: 7, Dst: 0, PacketLength: 4, LatencyBound: 200, BurstPackets: 32},
	}
	if _, err := Build(req); err == nil {
		t.Fatal("oversized GL burst accepted")
	}
}

func TestBuildRejectsNarrowBus(t *testing.T) {
	req := baseReq()
	req.Radix = 64
	req.BusWidthBits = 128 // 2 lanes, no room for GB+BE+GL
	req.GB = []noc.FlowSpec{gb(0, 0, 0.40, 8)}
	if _, err := Build(req); err == nil {
		t.Fatal("narrow bus accepted")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(Requirements{Radix: 8, BusWidthBits: 128}); err == nil {
		t.Fatal("empty requirements accepted")
	}
}

func TestBuildRejectsWrongClass(t *testing.T) {
	req := baseReq()
	req.GB[0].Class = noc.BestEffort
	req.GB[0].Rate = 0
	if _, err := Build(req); err == nil {
		t.Fatal("non-GB flow in GB list accepted")
	}
}
