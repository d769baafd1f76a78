package core

import (
	"strings"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// TestArbitersBuildEachFamily: each family's constructor builds its
// arbiter type for every output, and SSVC and original Virtual Clock
// program output out's Vticks from the flows into out alone.
func TestArbitersBuildEachFamily(t *testing.T) {
	specs := []noc.FlowSpec{
		{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.25, PacketLength: 8},
		{Src: 2, Dst: 3, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLength: 4},
	}
	cfg := testConfig(nil)
	for _, c := range []struct {
		family Arbitration
		is     func(arb.Arbiter) bool
	}{
		{ArbSSVC, func(a arb.Arbiter) bool { _, ok := a.(*SSVC); return ok }},
		{ArbLRG, func(a arb.Arbiter) bool { _, ok := a.(*arb.LRG); return ok }},
		{ArbRoundRobin, func(a arb.Arbiter) bool { _, ok := a.(*arb.RoundRobin); return ok }},
		{ArbOriginalVirtualClock, func(a arb.Arbiter) bool { _, ok := a.(*arb.OrigVC); return ok }},
		{ArbFixedPriority, func(a arb.Arbiter) bool { _, ok := a.(*arb.MultiLevel); return ok }},
	} {
		build, err := c.family.Arbiters(cfg, specs)
		if err != nil {
			t.Fatalf("%v: %v", c.family, err)
		}
		for out := 0; out < cfg.Radix; out++ {
			if a := build(out); !c.is(a) {
				t.Fatalf("%v: output %d built %T", c.family, out, a)
			}
		}
	}
	build, _ := ArbSSVC.Arbiters(cfg, specs)
	for out := 0; out < cfg.Radix; out++ {
		want := Vticks(cfg.Radix, specs, out)
		for in := 0; in < cfg.Radix; in++ {
			if got := build(out).(*SSVC).Vtick(in); got != want[in] {
				t.Fatalf("output %d input %d: Vtick %d, want %d", out, in, got.Uint(), want[in].Uint())
			}
		}
	}
}

// TestArbitersRefuse: an SSVC geometry Validate refuses and an unknown
// family are errors, and the non-SSVC families read nothing but the
// radix.
func TestArbitersRefuse(t *testing.T) {
	noBurst := testConfig(nil)
	noBurst.EnableGL, noBurst.GLVtick = true, 80
	wide := testConfig(nil)
	wide.CounterBits = 40
	for name, c := range map[string]struct {
		family Arbitration
		cfg    Config
		want   string
	}{
		"GL without a burst": {ArbSSVC, noBurst, "burst allowance"},
		"40-bit counters":    {ArbSSVC, wide, "counter width 40"},
		"unknown family":     {Arbitration(99), testConfig(nil), "unknown arbitration family 99"},
	} {
		if build, err := c.family.Arbiters(c.cfg, nil); err == nil || build != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got (%v, %v), want an error saying %q", name, build != nil, err, c.want)
		}
	}
	if _, err := ArbLRG.Arbiters(wide, nil); err != nil {
		t.Errorf("LRG refused an SSVC geometry it does not use: %v", err)
	}
	if got := Arbitration(99).String(); got != "Arbitration(99)" {
		t.Errorf("Arbitration(99).String() = %q", got)
	}
}
