package arb

import (
	"testing"

	"swizzleqos/internal/traffic"
)

func TestMaskBasics(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		m := make([]uint64, MaskWords(n))
		if MaskAny(m) {
			t.Fatalf("n=%d: empty mask reports a set bit", n)
		}
		if MaskFirst(m) != -1 {
			t.Fatalf("n=%d: MaskFirst on empty mask != -1", n)
		}
		for i := 0; i < n; i++ {
			MaskSet(m, i)
			if !MaskHas(m, i) {
				t.Fatalf("n=%d: bit %d not set", n, i)
			}
		}
		if MaskCount(m) != n {
			t.Fatalf("n=%d: count %d", n, MaskCount(m))
		}
		for i := 0; i < n; i += 2 {
			MaskClear(m, i)
		}
		for i := 0; i < n; i++ {
			if MaskHas(m, i) != (i%2 == 1) {
				t.Fatalf("n=%d: bit %d = %v after clearing evens", n, i, MaskHas(m, i))
			}
		}
		MaskZero(m)
		if MaskAny(m) {
			t.Fatalf("n=%d: MaskZero left bits", n)
		}
	}
}

func TestMaskNextFrom(t *testing.T) {
	const n = 130
	m := make([]uint64, MaskWords(n))
	MaskSet(m, 7)
	MaskSet(m, 64)
	MaskSet(m, 129)
	cases := []struct{ from, want int }{
		{0, 7}, {7, 7}, {8, 64}, {64, 64}, {65, 129}, {129, 129},
	}
	for _, c := range cases {
		if got := MaskNextFrom(m, c.from); got != c.want {
			t.Errorf("MaskNextFrom(from=%d) = %d, want %d", c.from, got, c.want)
		}
	}
	// Wrap-around: nothing at or above from.
	m2 := make([]uint64, MaskWords(n))
	MaskSet(m2, 3)
	if got := MaskNextFrom(m2, 100); got != 3 {
		t.Errorf("wrap: got %d, want 3", got)
	}
	if got := MaskNextFrom(make([]uint64, MaskWords(n)), 10); got != -1 {
		t.Errorf("empty: got %d, want -1", got)
	}
	// Exhaustive cross-check against a linear scan.
	rng := traffic.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		MaskZero(m)
		for i := 0; i < n; i++ {
			if rng.Bernoulli(0.2) {
				MaskSet(m, i)
			}
		}
		for from := 0; from < n; from++ {
			want := -1
			for k := 0; k < n; k++ {
				if i := (from + k) % n; MaskHas(m, i) {
					// The rotated reference: first set bit at or after
					// from, wrapping.
					want = i
					break
				}
			}
			if got := MaskNextFrom(m, from); got != want {
				t.Fatalf("trial %d from %d: got %d, want %d", trial, from, got, want)
			}
		}
	}
}

// TestMinRankInMatchesPick compares the word-parallel selection against
// the element-wise Pick across random masks and LRG states.
func TestMinRankInMatchesPick(t *testing.T) {
	rng := traffic.NewRNG(99)
	for _, n := range []int{1, 2, 3, 8, 63, 64, 65, 130, 257} {
		s := NewLRGState(n)
		mask := make([]uint64, MaskWords(n))
		var cand []int
		for trial := 0; trial < 300; trial++ {
			for g := 0; g < 3; g++ {
				s.Grant(rng.Intn(n))
			}
			MaskZero(mask)
			cand = cand[:0]
			for i := 0; i < n; i++ {
				if rng.Bernoulli(0.3) {
					MaskSet(mask, i)
					cand = append(cand, i)
				}
			}
			want := s.Pick(cand)
			if got := s.MinRankIn(mask); got != want {
				t.Fatalf("n=%d trial %d: MinRankIn=%d Pick=%d (order %v)", n, trial, got, want, s.Order())
			}
		}
	}
}

// TestLRGArbitrateMatchesRankScan holds LRG.Arbitrate's knockout to the
// first-minimum rank scan over dense request sets, with every fourth
// input requesting twice.
func TestLRGArbitrateMatchesRankScan(t *testing.T) {
	rng := traffic.NewRNG(5)
	for _, n := range []int{5, 8, 64, 130} {
		a := NewLRG(n)
		var reqs []Request
		for trial := 0; trial < 200; trial++ {
			reqs = reqs[:0]
			for i := 0; i < n; i++ {
				if rng.Bernoulli(0.5) {
					reqs = append(reqs, Request{Input: i})
					if i%4 == 0 {
						reqs = append(reqs, Request{Input: i})
					}
				}
			}
			want, wantRank := -1, n
			for i, r := range reqs {
				if rk := a.state.Rank(r.Input); rk < wantRank {
					want, wantRank = i, rk
				}
			}
			got := a.Arbitrate(0, reqs)
			if got != want {
				t.Fatalf("n=%d trial %d: got %d, want %d", n, trial, got, want)
			}
			if got >= 0 {
				a.Granted(0, reqs[got])
			}
		}
	}
}
