package core

import (
	"math"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// testConfig mirrors Figure 4's arbitration parameters: a radix-8 switch
// with a 12-bit counter and 4 significant bits (quantum 256).
func testConfig(vticks []VTime) Config {
	return Config{
		Radix:       8,
		CounterBits: 12,
		SigBits:     4,
		Policy:      SubtractRealTime,
		Vticks:      vticks,
	}
}

func uniformVticks(n int, v VTime) []VTime {
	out := make([]VTime, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func gbReq(input int) arb.Request {
	return arb.Request{Input: input, Class: noc.GuaranteedBandwidth,
		Packet: &noc.Packet{Src: input, Class: noc.GuaranteedBandwidth, Length: 8}}
}

func beReq(input int) arb.Request {
	return arb.Request{Input: input, Class: noc.BestEffort,
		Packet: &noc.Packet{Src: input, Class: noc.BestEffort, Length: 8}}
}

func glReq(input int) arb.Request {
	return arb.Request{Input: input, Class: noc.GuaranteedLatency,
		Packet: &noc.Packet{Src: input, Class: noc.GuaranteedLatency, Length: 4}}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(uniformVticks(8, 20))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"radix too small", func(c *Config) { c.Radix = 1 }},
		{"counter too narrow", func(c *Config) { c.CounterBits = 1 }},
		{"counter too wide", func(c *Config) { c.CounterBits = 40 }},
		{"sig bits zero", func(c *Config) { c.SigBits = 0 }},
		{"sig bits eat counter", func(c *Config) { c.SigBits = 12 }},
		{"sig bits above 16", func(c *Config) { c.CounterBits = 32; c.SigBits = MaxSigBits + 1 }},
		{"radix too large", func(c *Config) { c.Radix = 4097; c.Vticks = uniformVticks(4097, 20) }},
		{"gl burst too large", func(c *Config) { c.GLBurst = 1<<20 + 1 }},
		{"vtick count", func(c *Config) { c.Vticks = uniformVticks(3, 20) }},
		{"gl burst", func(c *Config) { c.EnableGL = true; c.GLVtick = 10; c.GLBurst = 0 }},
	}
	for _, tc := range cases {
		c := testConfig(uniformVticks(8, 20))
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// The top of every range is accepted (validated only: an SSVC with
	// 2^16 level planes is not built here).
	top := testConfig(uniformVticks(4096, 20))
	top.Radix, top.CounterBits, top.SigBits, top.GLBurst = 4096, 32, MaxSigBits, 1<<20
	if err := top.Validate(); err != nil {
		t.Errorf("top of every range rejected: %v", err)
	}
}

// TestGLBucketEdge pins CheckGLBucket's edge, GLBurst·GLVtick < 2^64,
// from both sides at GLBurst 3. At the largest Vtick it takes,
// (2^64-1)/3, the bucket still polices exactly: three back-to-back GL
// grants at cycle 0, the fourth refused until cycle Vtick. One Vtick more
// and Validate refuses the pair, whose clock would saturate within the
// burst and refill early; at 2^63 the allowance itself saturated and
// every grant passed.
func TestGLBucketEdge(t *testing.T) {
	const edge = VTime(math.MaxUint64 / 3)
	cfg := testConfig(uniformVticks(8, 20))
	cfg.EnableGL, cfg.GLVtick, cfg.GLBurst = true, edge, 3
	s := NewSSVC(cfg)
	var got [4]bool
	for i := range got {
		if got[i] = s.glEligible(0); got[i] {
			s.Granted(0, glReq(0))
		}
	}
	if got != [4]bool{true, true, true, false} {
		t.Errorf("GLVtick %d: eligible %v, want a burst of three", edge, got)
	}
	if refill := noc.CycleOfVTime(edge); s.glEligible(refill-1) || !s.glEligible(refill) {
		t.Errorf("GLVtick %d: the bucket does not refill at cycle %d", edge, refill)
	}
	for _, vt := range []VTime{edge + 1, 1 << 63} {
		cfg.GLVtick = vt
		if err := cfg.Validate(); err == nil {
			t.Errorf("GLVtick %d, GLBurst 3: a bucket that saturates within a burst was accepted", vt)
		}
	}
}

func TestSSVCCoarseQuantisation(t *testing.T) {
	s := NewSSVC(testConfig(uniformVticks(8, 300)))
	if got := s.Coarse(0); got != 0 {
		t.Fatalf("initial coarse = %d, want 0", got)
	}
	// One grant at time 0 advances aux to 300 -> coarse 1 (quantum 256).
	s.Granted(0, gbReq(0))
	if got := s.Aux(0); got != 300 {
		t.Fatalf("aux = %d, want 300", got)
	}
	if got := s.Coarse(0); got != 1 {
		t.Fatalf("coarse = %d, want 1", got)
	}
	// Coarse clamps at the top thermometer level.
	for i := 0; i < 100; i++ {
		s.Granted(0, gbReq(0))
	}
	if got := s.Coarse(0); got != s.Levels()-1 {
		t.Fatalf("saturated coarse = %d, want %d", got, s.Levels()-1)
	}
}

func TestSSVCLowerAuxWins(t *testing.T) {
	s := NewSSVC(testConfig(uniformVticks(8, 300)))
	s.Granted(0, gbReq(0)) // input 0 now at coarse 1
	reqs := []arb.Request{gbReq(0), gbReq(1)}
	w := s.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want input 1 (lower auxVC)", reqs[w].Input)
	}
}

func TestSSVCTieBrokenByLRG(t *testing.T) {
	s := NewSSVC(testConfig(uniformVticks(8, 20)))
	// Vtick 20 < quantum 256: several grants stay in coarse level 0, so
	// LRG decides.
	reqs := []arb.Request{gbReq(0), gbReq(1), gbReq(2)}
	w := s.Arbitrate(0, reqs)
	if reqs[w].Input != 0 {
		t.Fatalf("first tie winner %d, want 0", reqs[w].Input)
	}
	s.Granted(0, reqs[w])
	w = s.Arbitrate(1, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("second tie winner %d, want 1 (LRG rotation)", reqs[w].Input)
	}
}

func TestSSVCMaxWithRealTime(t *testing.T) {
	// Virtual Clock step 1: a long-idle flow's clock snaps to real time
	// before the increment, so it cannot bank priority for a burst.
	s := NewSSVC(testConfig(uniformVticks(8, 100)))
	s.Granted(1000, gbReq(0))
	// rel(1000) with quantum 256: Tick has not run, so base is 0 and
	// rel = 1000. aux = max(0, 1000) + 100 = 1100.
	if got := s.Aux(0); got != 1100 {
		t.Fatalf("aux = %d, want 1100", got)
	}
}

func TestSSVCSubtractMaintenance(t *testing.T) {
	s := NewSSVC(testConfig(uniformVticks(8, 300)))
	s.Granted(0, gbReq(0)) // aux = 300
	// Advancing the real-time clock one quantum shifts every counter
	// down one MSB step: aux 300 -> 44.
	s.Tick(256)
	if got := s.Aux(0); got != 44 {
		t.Fatalf("aux after one maintenance = %d, want 44", got)
	}
	if got := s.Coarse(0); got != 0 {
		t.Fatalf("coarse after maintenance = %d, want 0", got)
	}
	// Several quanta at once are all applied.
	s2 := NewSSVC(testConfig(uniformVticks(8, 300)))
	s2.Granted(0, gbReq(0))
	s2.Tick(256 * 3)
	if got := s2.Aux(0); got != 0 {
		t.Fatalf("aux after three maintenances = %d, want 0", got)
	}
}

func TestSSVCClassPriority(t *testing.T) {
	cfg := testConfig(uniformVticks(8, 20))
	cfg.EnableGL = true
	cfg.GLVtick = 0 // no policing
	s := NewSSVC(cfg)

	reqs := []arb.Request{beReq(0), gbReq(1), glReq(2)}
	w := s.Arbitrate(0, reqs)
	if reqs[w].Input != 2 {
		t.Fatalf("winner %d, want GL input 2", reqs[w].Input)
	}
	reqs = []arb.Request{beReq(0), gbReq(1)}
	w = s.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want GB input 1", reqs[w].Input)
	}
	reqs = []arb.Request{beReq(0)}
	w = s.Arbitrate(0, reqs)
	if reqs[w].Input != 0 {
		t.Fatalf("winner %d, want BE input 0", reqs[w].Input)
	}
}

func TestSSVCGBWithHugeAuxStillBeatsBE(t *testing.T) {
	// Class priority is strict: even a badly over-budget GB flow beats
	// best effort.
	s := NewSSVC(testConfig(uniformVticks(8, 4000)))
	s.Granted(0, gbReq(1)) // input 1 at the top level
	reqs := []arb.Request{beReq(0), gbReq(1)}
	w := s.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want GB input 1 over BE", reqs[w].Input)
	}
}

func TestSSVCUnreservedGBTreatedAsBestEffort(t *testing.T) {
	vt := uniformVticks(8, 20)
	vt[0] = 0 // input 0 has no reservation
	s := NewSSVC(testConfig(vt))
	reqs := []arb.Request{gbReq(0), gbReq(1)}
	w := s.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want reserved input 1", reqs[w].Input)
	}
	// Alone, the unreserved input is still served (work conservation).
	reqs = []arb.Request{gbReq(0)}
	if w := s.Arbitrate(0, reqs); w != 0 {
		t.Fatalf("unreserved input not served when alone")
	}
}

func TestSSVCGLPolicing(t *testing.T) {
	cfg := testConfig(uniformVticks(8, 20))
	cfg.EnableGL = true
	cfg.GLVtick = 100
	cfg.GLBurst = 2
	s := NewSSVC(cfg)

	reqs := []arb.Request{glReq(0), gbReq(1)}
	// Burst allowance 2: the first two GL grants at time 0 pass.
	for i := 0; i < 2; i++ {
		w := s.Arbitrate(0, reqs)
		if reqs[w].Input != 0 {
			t.Fatalf("GL grant %d: winner %d, want GL input", i, reqs[w].Input)
		}
		s.Granted(0, reqs[w])
	}
	// The third is policed: the GB request wins instead.
	w := s.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("policed cycle: winner %d, want GB input 1", reqs[w].Input)
	}
	// Once real time catches up with the leaky bucket, GL is eligible
	// again.
	w = s.Arbitrate(150, reqs)
	if reqs[w].Input != 0 {
		t.Fatalf("after catch-up: winner %d, want GL input 0", reqs[w].Input)
	}
}

func TestSSVCGLPolicingBlocksOnlyGL(t *testing.T) {
	cfg := testConfig(uniformVticks(8, 20))
	cfg.EnableGL = true
	cfg.GLVtick = 1000
	cfg.GLBurst = 1
	s := NewSSVC(cfg)
	s.Granted(0, glReq(0)) // exhaust the GL budget
	// Only GL requests present and all policed: no grant this cycle.
	reqs := []arb.Request{glReq(0)}
	if w := s.Arbitrate(1, reqs); w != -1 {
		t.Fatalf("policed GL-only cycle: winner %d, want -1", w)
	}
}

func TestSSVCHalvePolicy(t *testing.T) {
	cfg := testConfig(uniformVticks(8, 2000))
	cfg.Policy = Halve
	s := NewSSVC(cfg)
	s.Granted(0, gbReq(0)) // aux = 2000
	s.Granted(0, gbReq(1)) // aux = 2000
	s.Granted(0, gbReq(0)) // aux would be 4000 < 4095: fine
	if s.Saturations() != 0 {
		t.Fatalf("premature saturation")
	}
	s.Granted(0, gbReq(0)) // aux would exceed 4095: halve everything
	if s.Saturations() != 1 {
		t.Fatalf("saturations = %d, want 1", s.Saturations())
	}
	// Every counter was halved: input 1's 2000 became 1000.
	if got := s.Aux(1); got != 1000 {
		t.Fatalf("bystander aux = %d, want 1000", got)
	}
	if got := s.Aux(0); got != s.max/2 {
		t.Fatalf("saturating aux = %d, want %d", got, s.max/2)
	}
}

func TestSSVCResetPolicy(t *testing.T) {
	cfg := testConfig(uniformVticks(8, 3000))
	cfg.Policy = Reset
	s := NewSSVC(cfg)
	s.Granted(0, gbReq(0))
	s.Granted(0, gbReq(1))
	s.Granted(0, gbReq(0)) // would exceed 4095: reset all to zero
	if s.Saturations() != 1 {
		t.Fatalf("saturations = %d, want 1", s.Saturations())
	}
	for i := 0; i < 2; i++ {
		if got := s.Aux(i); got != 0 {
			t.Fatalf("aux[%d] = %d after reset, want 0", i, got)
		}
	}
}

func TestSSVCMaintenanceRunsUnderAllPolicies(t *testing.T) {
	// The real-time clock subtraction is shared hardware: it drains
	// counters under every policy without counting as a saturation
	// event.
	for _, policy := range []CounterPolicy{SubtractRealTime, Halve, Reset} {
		cfg := testConfig(uniformVticks(8, 300))
		cfg.Policy = policy
		s := NewSSVC(cfg)
		s.Granted(0, gbReq(0)) // aux = 300
		s.Tick(256)
		if got := s.Aux(0); got != 44 {
			t.Errorf("%v: aux after maintenance = %d, want 44", policy, got)
		}
		if s.Saturations() != 0 {
			t.Errorf("%v: maintenance must not count as saturation", policy)
		}
	}
}

func TestSSVCResetForgivesBurstDebt(t *testing.T) {
	// A burst from a low-rate flow (large Vtick) drives its counter
	// into saturation; under Reset the debt is forgiven entirely and
	// the flow immediately ties with its competitors again — the
	// mechanism behind Figure 5's flat Reset curve.
	cfg := testConfig(uniformVticks(8, 1500))
	cfg.Policy = Reset
	s := NewSSVC(cfg)
	s.Granted(0, gbReq(0)) // aux0 = 1500
	s.Granted(0, gbReq(1)) // aux1 = 1500
	s.Granted(0, gbReq(0)) // aux0 = 3000
	s.Granted(0, gbReq(0)) // aux0 would be 4500 > 4095: reset all
	if s.Saturations() != 1 {
		t.Fatalf("saturations = %d, want 1", s.Saturations())
	}
	if s.Aux(0) != 0 || s.Aux(1) != 0 {
		t.Fatalf("aux = %d/%d after reset, want 0/0", s.Aux(0), s.Aux(1))
	}
	if s.Coarse(0) != s.Coarse(1) {
		t.Fatal("burst debt must be forgiven: both flows tie at coarse 0")
	}
}

func TestSSVCBandwidthMeetsReservations(t *testing.T) {
	// The Virtual Clock guarantee (§4.2): with every input saturated and
	// reservations that fit within the channel's effective capacity
	// (8/9 flits/cycle for 8-flit packets), each flow receives at least
	// its reserved rate; the leftover is redistributed.
	rates := []float64{0.3, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05} // sum 0.85
	vt := make([]VTime, 8)
	for i, r := range rates {
		vt[i] = noc.FlowSpec{Rate: r, PacketLength: 8}.Vtick()
	}
	s := NewSSVC(testConfig(vt))
	wins := make([]int, 8)
	reqs := make([]arb.Request, 8)
	for i := range reqs {
		reqs[i] = gbReq(i)
	}
	now := Cycle(0)
	const grants = 50000
	for g := 0; g < grants; g++ {
		w := s.Arbitrate(now, reqs)
		wins[reqs[w].Input]++
		s.Granted(now, reqs[w])
		now += 9 // 8 flits + 1 arbitration cycle
		s.Tick(now)
	}
	var total float64
	for i, r := range rates {
		got := float64(wins[i]) * 8 / float64(now) // flits per cycle
		total += got
		// "within 2% of their reserved rates" — allow 2% relative slack.
		if got < r*0.98 {
			t.Errorf("input %d accepted %.4f flits/cycle, reserved %.2f", i, got, r)
		}
	}
	// The channel stays fully utilised: leftover bandwidth is handed
	// out, not wasted.
	if total < 8.0/9*0.99 {
		t.Errorf("total accepted %.4f flits/cycle, want ~%.4f (full channel)", total, 8.0/9)
	}
}

func TestPolicyStringsAndAccessors(t *testing.T) {
	names := map[CounterPolicy]string{
		SubtractRealTime:  "SubtractRealClock",
		Halve:             "DivideBy2",
		Reset:             "Reset",
		CounterPolicy(77): "CounterPolicy(77)",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(p), p.String(), want)
		}
	}
	s := NewSSVC(testConfig(uniformVticks(8, 300)))
	s.Granted(0, gbReq(0))
	// Therm reflects the coarse value; LRG exposes the shared order.
	code := s.Therm(0)
	if v, err := ThermValue(code); err != nil || v != s.Coarse(0) {
		t.Errorf("Therm/Coarse mismatch: %v vs %d (%v)", code, s.Coarse(0), err)
	}
	if s.LRG().Rank(0) != 7 {
		t.Errorf("granted input should be most recently granted, rank %d", s.LRG().Rank(0))
	}
}

// TestNewSSVCAllocsFlatInSigBits: the 2^SigBits level planes share one
// allocation, so building an SSVC costs the same number of objects at 3
// significant bits as at 16 (65,536 planes), where one slice per plane
// cost 65,549 objects and 2.1 MB at radix 2.
func TestNewSSVCAllocsFlatInSigBits(t *testing.T) {
	allocs := func(sigBits int) float64 {
		cfg := Config{Radix: 2, CounterBits: 24, SigBits: sigBits, Policy: Halve, Vticks: []VTime{4, 8}}
		return testing.AllocsPerRun(5, func() { NewSSVC(cfg) })
	}
	if narrow, wide := allocs(3), allocs(16); wide != narrow {
		t.Fatalf("NewSSVC makes %v objects at SigBits 16 and %v at SigBits 3", wide, narrow)
	}
}
