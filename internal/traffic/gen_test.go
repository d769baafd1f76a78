package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"swizzleqos/internal/noc"
)

func specGB(rate float64, length int) noc.FlowSpec {
	return noc.FlowSpec{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: rate, PacketLength: length}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(1)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/100 || b > n/10+n/100 {
			t.Errorf("bucket %d has %d samples, want ~%d", i, b, n/10)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestSequenceUnique(t *testing.T) {
	var s Sequence
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if seen[id] {
			t.Fatalf("duplicate packet ID %d", id)
		}
		seen[id] = true
	}
}

func TestBernoulliRate(t *testing.T) {
	var seq Sequence
	spec := specGB(0.4, 8)
	g := NewBernoulli(&seq, spec, 0.4, 1)
	const cycles = 200000
	flits := 0
	for c := noc.Cycle(0); c < cycles; c++ {
		if p := g.Tick(c, 0); p != nil {
			flits += p.Length
			if p.CreatedAt != c || p.Length != 8 || p.Class != noc.GuaranteedBandwidth {
				t.Fatalf("malformed packet: %+v", p)
			}
		}
	}
	rate := float64(flits) / cycles
	if rate < 0.38 || rate > 0.42 {
		t.Fatalf("offered rate %.4f, want ~0.4", rate)
	}
}

func TestBernoulliPanicsOnImpossibleRate(t *testing.T) {
	var seq Sequence
	// 9 flits/cycle with 8-flit packets is more than a packet per cycle; a
	// NaN rate passed every ordered comparison and then never fired.
	for _, rate := range []float64{9, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if CheckBernoulli(specGB(1, 8), rate) == nil {
			t.Errorf("CheckBernoulli accepted rate %g", rate)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %g did not panic", rate)
				}
			}()
			NewBernoulli(&seq, specGB(1, 8), rate, 1)
		}()
	}
	for _, rate := range []float64{0, 0.02, 8} {
		if err := CheckBernoulli(specGB(1, 8), rate); err != nil {
			t.Errorf("rate %g refused: %v", rate, err)
		}
	}
}

func TestPeriodicExact(t *testing.T) {
	var seq Sequence
	g := NewPeriodic(&seq, specGB(0.1, 4), 40, 3)
	var got []noc.Cycle
	for c := noc.Cycle(0); c < 200; c++ {
		if p := g.Tick(c, 0); p != nil {
			got = append(got, c)
		}
	}
	want := []noc.Cycle{3, 43, 83, 123, 163}
	if len(got) != len(want) {
		t.Fatalf("injection times %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("injection times %v, want %v", got, want)
		}
	}
}

func TestBurstyRateAndBurstiness(t *testing.T) {
	var seq Sequence
	spec := specGB(0.2, 8)
	g := NewBursty(&seq, spec, 0.2, 4, 99)
	const cycles = 500000
	flits := 0
	var gaps []noc.Cycle
	last := noc.Cycle(0)
	backToBack := 0
	packets := 0
	for c := noc.Cycle(0); c < cycles; c++ {
		if p := g.Tick(c, 0); p != nil {
			flits += p.Length
			packets++
			if packets > 1 {
				gap := c - last
				gaps = append(gaps, gap)
				if gap == noc.Cycle(spec.PacketLength) {
					backToBack++
				}
			}
			last = c
		}
	}
	rate := float64(flits) / cycles
	if rate < 0.18 || rate > 0.22 {
		t.Fatalf("offered rate %.4f, want ~0.2", rate)
	}
	// With mean burst 4, roughly 3 of every 4 inter-packet gaps are
	// back-to-back.
	frac := float64(backToBack) / float64(len(gaps))
	if frac < 0.6 || frac > 0.9 {
		t.Fatalf("back-to-back fraction %.3f, want ~0.75", frac)
	}
}

func TestBurstyPanicsOnBadArgs(t *testing.T) {
	var seq Sequence
	for _, f := range []func(){
		func() { NewBursty(&seq, specGB(0.2, 8), 0, 4, 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), 1.5, 4, 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), 0.2, 0.5, 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), math.NaN(), 4, 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), math.Inf(1), 4, 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), math.Inf(-1), 4, 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), 0.2, math.NaN(), 1) },
		func() { NewBursty(&seq, specGB(0.2, 8), 0.2, math.Inf(1), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// A mean burst so long that the mean OFF time overflows leaves a zero
// burst-entry probability: the source must report "never", not scan for
// a success that cannot come.
func TestBurstyZeroEntryProbabilityNeverFires(t *testing.T) {
	var seq Sequence
	g := NewBursty(&seq, specGB(0.2, 8), 0.5, 1e308, 1)
	if at, ok := g.NextArrival(0, 0); ok {
		t.Fatalf("NextArrival = %d, want never", at)
	}
	for c := noc.Cycle(0); c < 1000; c++ {
		if g.Tick(c, 0) != nil {
			t.Fatalf("polled source fired at cycle %d", c)
		}
	}
}

func TestBackloggedMaintainsDepth(t *testing.T) {
	var seq Sequence
	g := NewBacklogged(&seq, specGB(1, 8), 2)
	if p := g.Tick(0, 0); p == nil {
		t.Fatal("empty queue must trigger injection")
	}
	if p := g.Tick(1, 1); p == nil {
		t.Fatal("queue below depth must trigger injection")
	}
	if p := g.Tick(2, 2); p != nil {
		t.Fatal("queue at depth must not inject")
	}
}

func TestTraceOrderAndDone(t *testing.T) {
	var seq Sequence
	g := NewTrace(&seq, specGB(0.1, 4), []noc.Cycle{5, 5, 9})
	var got []noc.Cycle
	for c := noc.Cycle(0); c < 20; c++ {
		if p := g.Tick(c, 0); p != nil {
			got = append(got, c)
		}
	}
	// Two packets at cycle 5 arrive on consecutive ticks (5 and 6).
	want := []noc.Cycle{5, 6, 9}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("injections at %v, want %v", got, want)
	}
	if !g.Done() {
		t.Fatal("trace should be done")
	}
}

func TestTracePanicsOnUnsortedTimes(t *testing.T) {
	var seq Sequence
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted trace did not panic")
		}
	}()
	NewTrace(&seq, specGB(0.1, 4), []noc.Cycle{9, 5})
}
