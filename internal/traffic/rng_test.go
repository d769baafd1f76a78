package traffic

import (
	"fmt"
	"math"
	"testing"

	"swizzleqos/internal/noc"
)

// oneByOne is failuresBefore's definition, one draw per iteration: the
// oracle the lane scan must match on count and final state. It gives up
// after limit failed draws, reporting false.
func oneByOne(r *RNG, o odds, limit uint64) (uint64, bool) {
	for n := uint64(0); n < limit; n++ {
		if r.draw(o) {
			return n, true
		}
	}
	return limit, false
}

// scanCap bounds the oracle's wait for a success, so a check at any p
// finishes: a rarer success is not compared.
const scanCap = 1 << 16

// scanPath is one way failuresBefore can scan, called directly whatever
// the odds.
type scanPath struct {
	name string
	scan func(r *RNG, o odds) uint64
}

// scanPaths are the Go scan, the kernel where this CPU has one, and the
// dispatch between them.
func scanPaths() []scanPath {
	paths := []scanPath{{"go", func(r *RNG, o odds) uint64 { return r.scan(o, false) }}}
	if haveKernel {
		paths = append(paths, scanPath{"kernel", func(r *RNG, o odds) uint64 { return r.scan(o, true) }})
	}
	return append(paths, scanPath{"dispatch", (*RNG).failuresBefore})
}

// logPaths says which scan paths a test held to the oracle, so a log
// shows whether the kernel was exercised.
func logPaths(t testing.TB) {
	t.Helper()
	if haveKernel {
		t.Log("scan paths: go, kernel (AVX-512F/DQ), dispatch")
	} else {
		t.Log("scan paths: go, dispatch; the kernel is not exercised (no AVX-512F/DQ, or not amd64)")
	}
}

// checkScan runs scans failuresBefore calls from state seed against the
// oracle on every scan path and stops at the first one whose success
// lies beyond scanCap.
func checkScan(t *testing.T, o odds, seed uint64, scans int) {
	t.Helper()
	for _, path := range scanPaths() {
		got, ref := &RNG{state: seed}, &RNG{state: seed}
		for scan := 0; scan < scans; scan++ {
			want, ok := oneByOne(ref, o, scanCap)
			if !ok {
				break
			}
			if n := path.scan(got, o); n != want {
				t.Fatalf("%s: odds %d state %#x scan %d: %d failed draws, oracle %d", path.name, o, seed, scan, n, want)
			}
			if *got != *ref {
				t.Fatalf("%s: odds %d state %#x scan %d: state %#x, oracle %#x", path.name, o, seed, scan, got.state, ref.state)
			}
		}
	}
}

// checkBernoulliScan compares the integer Bernoulli draw with the
// definition it replaces, Float64() < p, from one seed: the same outcome
// on each of draws single draws, with the generator left in the same
// state both ways. From there it holds the scan to the one-draw oracle.
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
	if o != 0 {
		checkScan(t, o, got.state, 8)
	}
}

// inverse returns a's inverse modulo 2^64 (a odd), by Newton's iteration.
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// unshift inverts z ^= z >> k.
func unshift(z uint64, k uint) uint64 {
	x := z
	for i := uint(0); i < 64/k; i++ {
		x = z ^ x>>k
	}
	return x
}

// unmix inverts mixed: the state whose two multiplies give z.
func unmix(z uint64) uint64 {
	z = unshift(z*inverse(0x94d049bb133111eb), 27)
	return unshift(z*inverse(0xbf58476d1ce4e5b9), 30)
}

// placed returns the state whose draw k (counting from 0) has output out.
func placed(out, k uint64) uint64 { return unmix(unshift(out, 31)) - (k+1)*splitMixGamma }

func TestScanLanesMatchOneByOne(t *testing.T) {
	logPaths(t)
	for _, out := range []uint64{0, 1, 1 << 33, 1<<64 - 1, 0x0123456789abcdef} {
		if got := splitMix(placed(out, 0) + splitMixGamma); got != out {
			t.Fatalf("output %#x placed, %#x drawn", out, got)
		}
	}
	sparse := oddsOf(0.0025)
	all := []odds{1, sparse, kernelOdds - 1, kernelOdds, laneOdds - 1, laneOdds, 1<<53 - 1, 1 << 53}
	// Output 0, a success at any odds, placed at each of the first 66
	// draws: every lane of the kernel's first two blocks and the first
	// two of its third, and both lanes of the Go scan's first 33 steps.
	// At p = 2^-53 nothing earlier succeeds.
	const draws = 66
	for _, o := range all {
		for k := uint64(0); k < draws; k++ {
			checkScan(t, o, placed(0, k), 1)
		}
	}
	for _, path := range scanPaths() {
		for k := uint64(0); k < draws; k++ {
			if n := path.scan(&RNG{state: placed(0, k)}, 1); n != k {
				t.Fatalf("%s: p=2^-53, success placed at draw %d: scan returned %d", path.name, k, n)
			}
		}
	}
	// Unplaced successes on both sides of each switch-over and at p = 1.
	for _, o := range all[1:] {
		for seed := uint64(0); seed < 64; seed++ {
			checkScan(t, o, seed, 8)
		}
	}
	// The threshold at each lane: lim-1, the largest output that
	// succeeds, and lim, whose top 31 bits pass the Go scan's prefilter
	// while the output fails the exact test.
	lim := uint64(sparse) << 11
	if lim%(1<<33) == 0 {
		t.Fatal("lim is a multiple of 2^33: no output at lim passes the prefilter")
	}
	for _, out := range []uint64{lim - 1, lim} {
		for k := uint64(0); k < 32; k++ {
			seed := placed(out, k)
			if n, _ := oneByOne(&RNG{state: seed}, sparse, scanCap); (out < lim) != (n == k) || n < k {
				t.Fatalf("output %#x placed at draw %d: the oracle's first success is draw %d", out, k, n)
			}
			checkScan(t, sparse, seed, 1)
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
	logPaths(t)
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
	// The rare edges reach the scan only from a state near a success.
	for _, p := range []float64{0x1p-53, math.SmallestNonzeroFloat64} {
		f.Add(p, placed(0, 700))
	}
	logPaths(f)
	// Both sides of the kernel's cut-over.
	f.Add(0x1p-4, uint64(3))
	f.Add(0x1p-4-0x1p-53, uint64(4))
	f.Fuzz(func(t *testing.T, p float64, seed uint64) {
		checkBernoulliScan(t, p, seed, 512)
	})
}

// BenchmarkBernoulliNextArrival measures the scan at the sparse
// workloads' rate (2 % load in 8-flit packets: p = 0.0025), Figure 4's
// range, the control plane's GB load and the lanes' switch-over region,
// and reports the cost of one draw: path=dispatch through
// Bernoulli.NextArrival, path=go and path=kernel (where this CPU has
// one) each scan called directly, whatever the odds, so that the two
// paths' costs on either side of kernelOdds (p = 1/16) can be compared.
func BenchmarkBernoulliNextArrival(b *testing.B) {
	for _, p := range []float64{0.0025, 0.00625, 0.0375, 0.125, 0.5, 0.9} {
		b.Run(fmt.Sprintf("p=%g/path=dispatch", p), func(b *testing.B) {
			var seq Sequence
			g := NewBernoulli(&seq, specGB(p, 1), p, 1)
			from := noc.Cycle(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, _ := g.NextArrival(from, 0)
				from = at + 1
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(from.Uint()), "ns/draw")
		})
		for _, path := range scanPaths() {
			if path.name == "dispatch" {
				continue
			}
			b.Run(fmt.Sprintf("p=%g/path=%s", p, path.name), func(b *testing.B) {
				r, o := NewRNG(1), oddsOf(p)
				draws := uint64(0)
				for i := 0; i < b.N; i++ {
					draws += path.scan(r, o) + 1
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
			})
		}
	}
}
