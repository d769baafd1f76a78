package faults

import (
	"math"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

func TestBeginCycleFiresInOrder(t *testing.T) {
	in := newInjector(Config{FailStops: []FailStop{
		{Input: false, Port: 2, At: 50},
		{Input: true, Port: 1, At: 10},
		{Input: false, Port: 0, At: 10},
	}}, 8, 8)
	if fired := in.BeginCycle(9); len(fired) != 0 {
		t.Fatalf("cycle 9 fired %v, want nothing", fired)
	}
	fired := in.BeginCycle(10)
	if len(fired) != 2 {
		t.Fatalf("cycle 10 fired %d fail-stops, want 2", len(fired))
	}
	if !fired[0].Input || fired[0].Port != 1 || fired[1].Input || fired[1].Port != 0 {
		t.Fatalf("cycle 10 fired %v in wrong order", fired)
	}
	if !inputDead(in, 1) || !outputDead(in, 0) || outputDead(in, 2) {
		t.Fatal("dead-port state wrong after cycle 10")
	}
	if fired := in.BeginCycle(11); len(fired) != 0 {
		t.Fatalf("cycle 11 re-fired %v", fired)
	}
	if fired := in.BeginCycle(60); len(fired) != 1 || fired[0].Port != 2 {
		t.Fatalf("cycle 60 fired %v, want output 2", fired)
	}
	if !outputDead(in, 2) {
		t.Fatal("output 2 not dead after its fail-stop")
	}
	// Input and output id spaces must not collide.
	if inputDead(in, 0) || inputDead(in, 2) || outputDead(in, 1) {
		t.Fatal("dead-port state leaked across the input/output namespaces")
	}
}

// TestStallWindow steps the stall mask over overlapping windows, an empty
// one and a fail-stop of a stalled port: a port is stalled exactly while
// some window covers the cycle, and StallCycles counts one a cycle for
// each stalled port that is still alive.
func TestStallWindow(t *testing.T) {
	cfg := Config{
		Stalls: []StallWindow{
			{Port: 3, From: 100, Until: 103},
			{Port: 3, From: 102, Until: 105},
			{Port: 70, From: 101, Until: 110},
			{Port: 5, From: 104, Until: 104},
		},
		FailStops: []FailStop{{Port: 70, At: 107}},
	}
	in := newInjector(cfg, 8, 72)
	want := uint64(0)
	for now := noc.Cycle(95); now < 115; now++ {
		in.BeginCycle(now)
		for port := 0; port < 72; port++ {
			covered := false
			for _, w := range cfg.Stalls {
				covered = covered || (w.Port == port && now >= w.From && now < w.Until)
			}
			if got := arb.MaskHas(in.stalled, port); got != covered {
				t.Fatalf("cycle %d: port %d stalled=%v, want %v", now, port, got, covered)
			}
			if covered && !outputDead(in, port) {
				want++
			}
		}
		if got := in.Totals().StallCycles; got != want {
			t.Fatalf("cycle %d: StallCycles = %d, want %d", now, got, want)
		}
	}
	if want != 5+6 {
		t.Fatalf("scenario counted %d stall cycles, want 11", want)
	}
}

func TestRetryBudgetAndBackoff(t *testing.T) {
	in := newInjector(Config{MaxRetries: 3, BackoffBase: 4, BackoffCap: 10}, 8, 8)
	p := &noc.Packet{ID: 1, Length: 8}
	wantHold := []noc.Cycle{1004, 1008, 1010} // 4, 8, then capped at 10
	for i, want := range wantHold {
		if !in.Retry(1000, p) {
			t.Fatalf("attempt %d: budget exhausted early", i+1)
		}
		if p.HoldUntil != want {
			t.Fatalf("attempt %d: HoldUntil = %d, want %d", i+1, p.HoldUntil, want)
		}
	}
	if in.Retry(1000, p) {
		t.Fatal("4th attempt allowed past MaxRetries=3")
	}
	c := in.Totals()
	if c.Retransmissions != 3 || c.Drops != 1 {
		t.Fatalf("counters = %+v, want 3 retransmissions, 1 drop", c)
	}
}

func TestRetryBackoffShiftOverflow(t *testing.T) {
	// A pathological retry count must not shift the delay past the cap
	// (or wrap to zero).
	in := newInjector(Config{MaxRetries: 100, BackoffBase: 8, BackoffCap: 512}, 8, 8)
	p := &noc.Packet{}
	p.Retries = 70 // delay would be 8<<70 without the guard
	if !in.Retry(0, p) {
		t.Fatal("budget should allow attempt 71")
	}
	if p.HoldUntil != 512 {
		t.Fatalf("HoldUntil = %d, want the 512 cap", p.HoldUntil)
	}
}

func TestCorruptArrivalDeterminism(t *testing.T) {
	roll := func() (hits int, pattern []bool) {
		in := newInjector(Config{Seed: 7, CorruptProb: 0.25}, 8, 8)
		for i := 0; i < 400; i++ {
			c := in.CorruptArrival(&noc.Packet{})
			pattern = append(pattern, c)
			if c {
				hits++
			}
		}
		return hits, pattern
	}
	h1, p1 := roll()
	h2, p2 := roll()
	if h1 != h2 {
		t.Fatalf("corruption stream not reproducible: %d vs %d hits", h1, h2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("corruption decision %d differs between identical injectors", i)
		}
	}
	if h1 < 50 || h1 > 150 {
		t.Fatalf("%d corruptions in 400 draws at p=0.25 is implausible", h1)
	}
}

func TestCorruptArrivalDisabled(t *testing.T) {
	in := newInjector(Config{Seed: 7}, 8, 8) // CorruptProb 0
	for i := 0; i < 100; i++ {
		if in.CorruptArrival(&noc.Packet{}) {
			t.Fatal("corruption fired with probability 0")
		}
	}
	if in.Totals().Corruptions != 0 {
		t.Fatal("corruption counted with probability 0")
	}
}

func TestRedistribute(t *testing.T) {
	rates := []float64{0.40, 0.20, 0.10, 0, 0.05}
	out := Redistribute(rates, func(i int) bool { return i == 1 })
	if out[1] != 0 {
		t.Fatalf("failed flow kept rate %g", out[1])
	}
	// Total reserved bandwidth is preserved.
	sumBefore, sumAfter := 0.0, 0.0
	for i := range rates {
		sumBefore += rates[i]
		sumAfter += out[i]
	}
	if math.Abs(sumBefore-sumAfter) > 1e-12 {
		t.Fatalf("total rate changed: %g -> %g", sumBefore, sumAfter)
	}
	// Survivors scale proportionally: 0.20 freed over 0.55 surviving.
	scale := 1 + 0.20/0.55
	for _, i := range []int{0, 2, 4} {
		if math.Abs(out[i]-rates[i]*scale) > 1e-12 {
			t.Fatalf("flow %d: rate %g, want %g", i, out[i], rates[i]*scale)
		}
	}
	// Zero-rate (best-effort) flows neither give nor take.
	if out[3] != 0 {
		t.Fatalf("zero-rate flow gained %g", out[3])
	}
	// Everyone failed: nothing to absorb, all zero.
	all := Redistribute([]float64{0.5, 0.5}, func(int) bool { return true })
	if all[0] != 0 || all[1] != 0 {
		t.Fatalf("no survivors but rates %v", all)
	}
}

func TestConfigValidate(t *testing.T) {
	ok := Config{
		CorruptProb: 0.1,
		Stalls:      []StallWindow{{Port: 1, From: 5, Until: 9}},
		FailStops:   []FailStop{{Input: true, Port: 3, At: 7}, {Port: 0, At: 2}},
	}
	if err := ok.Validate(4, 2); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{CorruptProb: -0.1},
		{CorruptProb: 1.5},
		{Stalls: []StallWindow{{Port: 2, From: 0, Until: 1}}},
		{Stalls: []StallWindow{{Port: 0, From: 9, Until: 5}}},
		{FailStops: []FailStop{{Input: true, Port: 4}}},
		{FailStops: []FailStop{{Port: 2}}},
	}
	for i, c := range bad {
		if err := c.Validate(4, 2); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func inputDead(in *Injector, p int) bool  { return arb.MaskHas(in.deadIn, p) }
func outputDead(in *Injector, p int) bool { return arb.MaskHas(in.deadOut, p) }

// newInjector builds an injector with port masks for numIn inputs and
// numOut outputs.
func newInjector(cfg Config, numIn, numOut int) *Injector {
	out := arb.MaskWords(numOut)
	return New(cfg, make([]uint64, arb.MaskWords(numIn)), make([]uint64, out), make([]uint64, out))
}
