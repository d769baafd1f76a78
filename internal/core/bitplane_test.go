package core

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// arbitrateScalar is the element-wise reference decision: one comparison
// per request, mirroring a sequential walk of the crosspoints. It is the
// differential oracle for the bitplane path, which replaced it.
func (s *SSVC) arbitrateScalar(now noc.Cycle, reqs []arb.Request) int {
	// Guaranteed latency: absolute priority while within budget; LRG
	// picks among simultaneous GL requesters (Fig 3).
	if s.cfg.EnableGL && s.glEligible(now) {
		if w := s.pickLRG(reqs, func(r arb.Request) bool {
			return r.Class == noc.GuaranteedLatency
		}); w >= 0 {
			return w
		}
	}
	// Guaranteed bandwidth: smallest thermometer code wins; LRG breaks
	// ties. GB requests from inputs without a reservation fall through
	// to best-effort priority.
	best := -1
	bestCoarse := s.levels
	bestRank := s.cfg.Radix
	for i, r := range reqs {
		if r.Class != noc.GuaranteedBandwidth || s.cfg.Vticks[r.Input] == 0 {
			continue
		}
		c := s.Coarse(r.Input)
		rk := s.lrg.Rank(r.Input)
		if c < bestCoarse || (c == bestCoarse && rk < bestRank) {
			best, bestCoarse, bestRank = i, c, rk
		}
	}
	if best >= 0 {
		return best
	}
	// Best effort (including unreserved GB): plain LRG.
	return s.pickLRG(reqs, func(r arb.Request) bool {
		return r.Class == noc.BestEffort ||
			(r.Class == noc.GuaranteedBandwidth && s.cfg.Vticks[r.Input] == 0)
	})
}

func (s *SSVC) pickLRG(reqs []arb.Request, keep func(arb.Request) bool) int {
	best, bestRank := -1, s.cfg.Radix
	for i, r := range reqs {
		if !keep(r) {
			continue
		}
		if rk := s.lrg.Rank(r.Input); rk < bestRank {
			best, bestRank = i, rk
		}
	}
	return best
}

// checkLevelPlanes asserts the incrementally maintained level planes
// agree with freshly derived coarse values for every input.
func checkLevelPlanes(t *testing.T, s *SSVC, step string) {
	t.Helper()
	for i := 0; i < s.cfg.Radix; i++ {
		c := s.Coarse(i)
		for k := 0; k < s.levels; k++ {
			if got := arb.MaskHas(s.plane(k), i); got != (k == c) {
				t.Fatalf("%s: input %d coarse %d but plane %d bit = %v", step, i, c, k, got)
			}
		}
	}
}

// randomSSVC builds an SSVC over rng-chosen geometry, including
// non-power-of-two and >64 radices and inputs without reservations.
func randomSSVC(rng *traffic.RNG, radix int, policy CounterPolicy) *SSVC {
	vt := make([]VTime, radix)
	for i := range vt {
		if rng.Bernoulli(0.8) {
			vt[i] = VTime(rng.Intn(900) + 1)
		}
	}
	return NewSSVC(Config{
		Radix: radix, CounterBits: 10, SigBits: 3, Policy: policy,
		Vticks:   vt,
		EnableGL: true, GLVtick: 40, GLBurst: 2,
	})
}

// TestLevelPlanesTrackCoarse drives random grant/tick sequences through
// every counter policy — including forced saturations — and checks the
// planes stay exact.
func TestLevelPlanesTrackCoarse(t *testing.T) {
	rng := traffic.NewRNG(0xB17)
	for _, policy := range []CounterPolicy{SubtractRealTime, Halve, Reset} {
		for _, radix := range []int{2, 5, 64, 65, 130} {
			s := randomSSVC(rng, radix, policy)
			checkLevelPlanes(t, s, "initial")
			now := Cycle(0)
			for step := 0; step < 400; step++ {
				now += Cycle(rng.Intn(40))
				s.Tick(now)
				checkLevelPlanes(t, s, "after Tick")
				in := rng.Intn(radix)
				class := noc.GuaranteedBandwidth
				if rng.Bernoulli(0.1) {
					class = noc.BestEffort
				}
				s.Granted(now, arb.Request{Input: in, Class: class})
				checkLevelPlanes(t, s, "after Granted")
			}
			if policy != SubtractRealTime && s.Saturations() == 0 {
				t.Errorf("policy %v radix %d: no saturations exercised", policy, radix)
			}
		}
	}
}

// TestArbitrateMatchesScalar is the in-package differential check: the
// word-parallel Arbitrate and the element-wise scan must pick the same
// winner for every random request set, across saturation states and
// vtick updates.
func TestArbitrateMatchesScalar(t *testing.T) {
	rng := traffic.NewRNG(0x50C)
	for _, policy := range []CounterPolicy{SubtractRealTime, Halve, Reset} {
		for _, radix := range []int{2, 7, 64, 65, 130} {
			s := randomSSVC(rng, radix, policy)
			now := Cycle(0)
			var reqs []arb.Request
			for step := 0; step < 600; step++ {
				now += Cycle(rng.Intn(30))
				s.Tick(now)
				if rng.Bernoulli(0.02) {
					vt := make([]VTime, radix)
					for i := range vt {
						if rng.Bernoulli(0.7) {
							vt[i] = VTime(rng.Intn(900) + 1)
						}
					}
					if err := s.SetVticks(vt); err != nil {
						t.Fatal(err)
					}
				}
				reqs = reqs[:0]
				for i := 0; i < radix; i++ {
					if !rng.Bernoulli(0.4) {
						continue
					}
					class := noc.GuaranteedBandwidth
					switch rng.Intn(6) {
					case 0:
						class = noc.GuaranteedLatency
					case 1:
						class = noc.BestEffort
					}
					reqs = append(reqs, arb.Request{Input: i, Class: class})
				}
				want := s.arbitrateScalar(now, reqs)
				got := s.Arbitrate(now, reqs)
				if len(reqs) == 0 {
					want = -1
				}
				if got != want {
					t.Fatalf("policy %v radix %d step %d: bitplane %d != scalar %d (%d reqs)",
						policy, radix, step, got, want, len(reqs))
				}
				if got >= 0 {
					s.Granted(now, reqs[got])
				}
			}
		}
	}
}
