package switchsim

import (
	"fmt"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/heaptest"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// benchSwitch builds a saturated radix-N switch with one GB flow per
// input, uniformly spread across outputs.
func benchSwitch(b testing.TB, radix int, newArb func(int) arb.Arbiter) (*Switch, *traffic.Sequence) {
	b.Helper()
	sw, err := New(Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}, newArb)
	if err != nil {
		b.Fatal(err)
	}
	seq := new(traffic.Sequence)
	for i := 0; i < radix; i++ {
		spec := noc.FlowSpec{
			Src: i, Dst: (i * 7) % radix,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.5,
			PacketLength: 8,
		}
		if err := sw.AddFlow(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}); err != nil {
			b.Fatal(err)
		}
	}
	return sw, seq
}

// BenchmarkSwitchCycle measures simulation speed (cycles/second) for
// saturated switches at the paper's radices under LRG and SSVC.
func BenchmarkSwitchCycle(b *testing.B) {
	for _, radix := range []int{8, 16, 32, 64} {
		arbs := map[string]func(int) arb.Arbiter{
			"LRG":  func(int) arb.Arbiter { return arb.NewLRG(radix) },
			"SSVC": benchSSVC(radix),
		}
		for _, name := range []string{"LRG", "SSVC"} {
			b.Run(fmt.Sprintf("radix%d/%s", radix, name), func(b *testing.B) {
				sw, _ := benchSwitch(b, radix, arbs[name])
				sw.Run(1000) // fill pipelines
				b.ReportAllocs()
				b.ResetTimer()
				sw.Run(noc.Cycle(b.N))
				b.ReportMetric(float64(sw.Delivered)/float64(sw.Now()), "pkts/cycle")
			})
		}
	}
}

// benchSSVC builds the SSVC arbiters of the benchmarks: every input at
// a vtick of 16.
func benchSSVC(radix int) func(int) arb.Arbiter {
	vticks := make([]core.VTime, radix)
	for i := range vticks {
		vticks[i] = 16
	}
	return ssvcFactory(radix, vticks)
}

// The steady-state configurations: each builder returns its switch
// recycling delivered packets and warm (pipelines full, free lists and
// packet pool at their high-water marks), so that the benchmark times,
// and TestSteadyStateAllocs counts, nothing but the cycle loop.
var (
	recycledRadices = []int{8, 16, 32, 64}
	idleRadices     = []int{8, 64}
)

// recycledSwitch is the configuration the experiments layer runs in:
// saturated, delivered packets handed back to the generator pool via
// OnRelease.
func recycledSwitch(tb testing.TB, radix int) *Switch {
	sw, seq := benchSwitch(tb, radix, benchSSVC(radix))
	sw.OnRelease(seq.Recycle)
	sw.Run(heaptest.Cycles)
	return sw
}

// idleSwitch is the low-load regime the event-driven masks target: each
// input carries a 2%-rate Bernoulli GB flow, so in most cycles almost
// every port is provably idle.
func idleSwitch(tb testing.TB, radix int) *Switch { return idleSwitchFaults(tb, radix, nil) }

// idleSwitchFaults is idleSwitch with a fault schedule installed, if one
// is given, before the warm-up.
func idleSwitchFaults(tb testing.TB, radix int, cfg *faults.Config) *Switch {
	sw, err := New(Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}, benchSSVC(radix))
	if err != nil {
		tb.Fatal(err)
	}
	if cfg != nil {
		if err := sw.SetFaults(*cfg); err != nil {
			tb.Fatal(err)
		}
	}
	seq := new(traffic.Sequence)
	for i := 0; i < radix; i++ {
		spec := noc.FlowSpec{
			Src: i, Dst: (i * 7) % radix,
			Class:        noc.GuaranteedBandwidth,
			Rate:         0.02,
			PacketLength: 8,
		}
		if err := sw.AddFlow(traffic.Flow{Spec: spec,
			Gen: traffic.NewBernoulli(seq, spec, 0.02, uint64(i)+1)}); err != nil {
			tb.Fatal(err)
		}
	}
	sw.OnRelease(seq.Recycle)
	// At 2% load the packet pool's high-water mark keeps rising for
	// thousands of cycles: this is the configuration that sets the
	// length of the warm-up.
	sw.Run(heaptest.Cycles)
	return sw
}

// TestSteadyStateAllocs is the allocation gate on the cycle loop: every
// steady-state benchmark configuration must run warm without a malloc
// per cycle.
func TestSteadyStateAllocs(t *testing.T) {
	check := func(name string, build func(testing.TB) *Switch) {
		t.Run(name, func(t *testing.T) {
			sw := build(t)
			heaptest.Zero(t, func(n int) { sw.Run(noc.Cycle(n)) })
			if err := sw.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, radix := range recycledRadices {
		check(fmt.Sprintf("SwitchCycleRecycled/radix%d/SSVC", radix), func(tb testing.TB) *Switch { return recycledSwitch(tb, radix) })
	}
	for _, radix := range idleRadices {
		check(fmt.Sprintf("SwitchCycleIdle/radix%d/SSVC", radix), func(tb testing.TB) *Switch { return idleSwitch(tb, radix) })
	}
	check("SwitchCycleSat/radix64", satSwitch)
}

// BenchmarkSwitchCycleIdle measures the low-load regime: the cycle loop
// should touch only the handful of ports with work (admission skips
// plus SkippedOutputs bulk accounting) instead of spinning all radix
// ports.
func BenchmarkSwitchCycleIdle(b *testing.B) {
	for _, radix := range idleRadices {
		b.Run(fmt.Sprintf("radix%d/SSVC", radix), func(b *testing.B) {
			sw := idleSwitch(b, radix)
			b.ReportAllocs()
			b.ResetTimer()
			sw.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(sw.SkippedOutputs)/float64(sw.Now()), "skips/cycle")
		})
	}
}

// BenchmarkSwitchCycleFaults measures idleSwitch's radix-64, 2 %-load
// cycle with no fault schedule, with an inert one (faults.Config{}, which
// injects nothing) and with a live one: 1 % CRC corruption with retries,
// sixteen 1000-cycle stalls of one output or another, one every 10000
// cycles from the warm-up on, and an input and an output fail-stopped
// during the warm-up. All three walk the same masked
// cycle; before faults became events the inert and live schedules ran a
// full walk of every port.
func BenchmarkSwitchCycleFaults(b *testing.B) {
	live := &faults.Config{Seed: 3, CorruptProb: 0.01,
		FailStops: []faults.FailStop{{Input: true, Port: 5, At: 1000}, {Port: 9, At: 2000}}}
	for k := 0; k < 16; k++ {
		from := noc.CycleOf(uint64(10000 * k))
		live.Stalls = append(live.Stalls, faults.StallWindow{Port: 7 * k % 64, From: from, Until: from + 1000})
	}
	for _, sc := range []struct {
		name string
		cfg  *faults.Config
	}{{"none", nil}, {"inert", &faults.Config{}}, {"live", live}} {
		b.Run(sc.name, func(b *testing.B) {
			sw := idleSwitchFaults(b, 64, sc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			sw.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(sw.SkippedOutputs)/float64(sw.Now()), "skips/cycle")
		})
	}
}

// BenchmarkSwitchCycleRecycled measures the steady-state configuration:
// the cycle loop should report zero allocations per cycle.
func BenchmarkSwitchCycleRecycled(b *testing.B) {
	for _, radix := range recycledRadices {
		b.Run(fmt.Sprintf("radix%d/SSVC", radix), func(b *testing.B) {
			sw := recycledSwitch(b, radix)
			b.ReportAllocs()
			b.ResetTimer()
			sw.Run(noc.Cycle(b.N))
			b.ReportMetric(float64(sw.Delivered)/float64(sw.Now()), "pkts/cycle")
		})
	}
}
