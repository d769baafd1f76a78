package traffic

import (
	"math"
	"testing"

	"swizzleqos/internal/noc"
)

// checkBernoulliScan compares the integer Bernoulli draw with the
// definition it replaces, Float64() < p, from one seed: the same outcome
// on each of draws single draws, and — where a success comes soon enough
// to wait for — the same failure count from the register scan, with the
// generator left in the same state both ways.
func checkBernoulliScan(t *testing.T, p float64, seed uint64, draws int) {
	t.Helper()
	o := oddsOf(p)
	got, ref := NewRNG(seed), NewRNG(seed)
	for i := 0; i < draws; i++ {
		if g, w := got.draw(o), ref.Float64() < p; g != w {
			t.Fatalf("p=%g seed=%d draw %d: integer draw %v, Float64() < p %v", p, seed, i, g, w)
		}
	}
	if *got != *ref {
		t.Fatalf("p=%g seed=%d: state %#x after %d draws, reference %#x", p, seed, got.state, draws, ref.state)
	}
	if !(p >= 1.0/4096) { // rarer successes would take too long to reach
		return
	}
	for scan := 0; scan < 8; scan++ {
		want := uint64(0)
		for !(ref.Float64() < p) {
			want++
		}
		if n := got.failuresBefore(o); n != want {
			t.Fatalf("p=%g seed=%d scan %d: %d failed draws, reference %d", p, seed, scan, n, want)
		}
		if *got != *ref {
			t.Fatalf("p=%g seed=%d scan %d: state %#x, reference %#x", p, seed, scan, got.state, ref.state)
		}
	}
}

// bernoulliEdges are the probabilities where an off-by-one in the
// threshold would show: the two ends, their nearest neighbours, a
// denormal, and the benchmark's sparse rate.
var bernoulliEdges = []float64{
	0, 0x1p-53, math.SmallestNonzeroFloat64, 0x1p-1060, 0.0025, 0.5, 1 - 0x1p-53, 1,
	// Outside [0,1] the comparison still has a meaning, which
	// RNG.Bernoulli keeps.
	-1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
}

func TestBernoulliThresholdEdges(t *testing.T) {
	for p, want := range map[float64]odds{
		0: 0, 0x1p-53: 1, math.SmallestNonzeroFloat64: 1, 0.5: 1 << 52, 1 - 0x1p-53: 1<<53 - 1, 1: 1 << 53,
	} {
		if got := oddsOf(p); got != want {
			t.Errorf("oddsOf(%g) = %d, want %d", p, got, want)
		}
	}
	for _, p := range bernoulliEdges {
		checkBernoulliScan(t, p, 1, 4096)
	}
}

func FuzzBernoulliScan(f *testing.F) {
	for i, p := range bernoulliEdges {
		f.Add(p, uint64(i))
	}
	f.Add(0.02/4, uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		checkBernoulliScan(t, p, seed, 512)
	})
}

// BenchmarkBernoulliNextArrival measures the scan at the sparse
// workload's rate (2 % load in 8-flit packets: p = 0.0025, 400 draws per
// arrival) and reports the cost of one draw.
func BenchmarkBernoulliNextArrival(b *testing.B) {
	var seq Sequence
	g := NewBernoulli(&seq, specGB(0.02, 8), 0.02, 1)
	from := noc.Cycle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _ := g.NextArrival(from, 0)
		from = at + 1
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(from.Uint()), "ns/draw")
}
