package core

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/heaptest"
)

// BenchmarkSSVCArbitrate measures one fully contended arbitration: all
// radix inputs requesting, mixed coarse values.
func BenchmarkSSVCArbitrate(b *testing.B) {
	for _, radix := range []int{8, 64} {
		b.Run(map[int]string{8: "radix8", 64: "radix64"}[radix], func(b *testing.B) {
			vticks := make([]VTime, radix)
			for i := range vticks {
				vticks[i] = VTime(20 + 40*i)
			}
			s := NewSSVC(Config{Radix: radix, CounterBits: 12, SigBits: 4,
				Policy: SubtractRealTime, Vticks: vticks})
			reqs := make([]arb.Request, radix)
			for i := range reqs {
				reqs[i] = gbReq(i)
			}
			// Spread the counters so the comparison is non-trivial.
			for i := 0; i < radix; i++ {
				s.Granted(0, reqs[i])
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				now := Cycle(n)
				w := s.Arbitrate(now, reqs)
				s.Granted(now, reqs[w])
				s.Tick(now)
			}
		})
	}
}

// The arbitration kernels BenchmarkBitplaneArbitrate compares and
// TestSteadyStateAllocs gates, at one-word and multi-word radices.
var (
	arbitrateRadices = []struct {
		name  string
		radix int
	}{{"radix64", 64}, {"radix256", 256}}
	arbitrateKernels = []struct {
		name string
		fn   func(*SSVC, Cycle, []arb.Request) int
	}{{"bitplane", (*SSVC).Arbitrate}, {"scalar", (*SSVC).arbitrateScalar}}
)

// contended builds an arbiter with every input requesting and the
// counters spread so the level planes are non-trivial.
func contended(radix int) (*SSVC, []arb.Request) {
	vticks := make([]VTime, radix)
	for i := range vticks {
		vticks[i] = VTime(20 + 7*i)
	}
	s := NewSSVC(Config{Radix: radix, CounterBits: 12, SigBits: 4,
		Policy: SubtractRealTime, Vticks: vticks})
	reqs := make([]arb.Request, radix)
	for i := range reqs {
		reqs[i] = gbReq(i)
	}
	for i := 0; i < radix; i++ {
		s.Granted(Cycle(i), reqs[i])
	}
	return s, reqs
}

// BenchmarkBitplaneArbitrate isolates the arbitration decision on a
// fully contended input set: the word-parallel bitplane path against the
// element-wise scalar scan it replaced. No Granted/Tick in the loop —
// this is the pure decision cost.
func BenchmarkBitplaneArbitrate(b *testing.B) {
	for _, r := range arbitrateRadices {
		s, reqs := contended(r.radix)
		for _, k := range arbitrateKernels {
			b.Run(r.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					if w := k.fn(s, Cycle(n), reqs); w < 0 {
						b.Fatal("no winner")
					}
				}
			})
		}
	}
}

// BenchmarkArbitrateOne is the one-request list, the common case at
// light load: nothing to resolve in parallel, only the class gate.
func BenchmarkArbitrateOne(b *testing.B) {
	for _, r := range arbitrateRadices {
		s, reqs := contended(r.radix)
		one := reqs[5:6]
		b.Run(r.name, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if s.Arbitrate(Cycle(n), one) != 0 {
					b.Fatal("the one request lost")
				}
			}
		})
	}
}

// TestSteadyStateAllocs is the allocation gate on the arbitration
// decision: neither kernel may allocate. There is nothing to warm.
func TestSteadyStateAllocs(t *testing.T) {
	for _, r := range arbitrateRadices {
		s, reqs := contended(r.radix)
		for _, k := range arbitrateKernels {
			t.Run("BitplaneArbitrate/"+r.name+"/"+k.name, func(t *testing.T) {
				heaptest.Zero(t, func(calls int) {
					for n := 0; n < calls; n++ {
						if w := k.fn(s, Cycle(n), reqs); w < 0 {
							t.Fatal("no winner")
						}
					}
				})
			})
		}
	}
}

// BenchmarkSSVCTick measures the real-time-clock maintenance sweep.
func BenchmarkSSVCTick(b *testing.B) {
	s := NewSSVC(testConfig(uniformVticks(8, 300)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s.Tick(Cycle(n))
	}
}
