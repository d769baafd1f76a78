package core

import (
	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// This file is the word-parallel arbitration path (DESIGN.md "Bitplane
// arbitration"). The hardware SSVC resolves a whole input set in one
// clock: every crosspoint drives its thermometer code onto shared
// bitlines and inhibit wires kill the losers in parallel. The software
// image of that is a set of uint64 level planes — plane k holds a bit per
// input whose coarse auxVC value is k — kept incrementally up to date by
// Granted/Tick/onSaturation, so Arbitrate is a handful of word AND/OR
// operations instead of a per-input walk. One word covers the paper's
// radix-64 core; []uint64 planes generalise the identical code to any
// radix.

// moveLevel relocates input i's bit between level planes.
//
//ssvc:hotpath
func (s *SSVC) moveLevel(i, from, to int) {
	if from == to {
		return
	}
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	s.lvl[from*s.words+w] &^= bit
	s.lvl[to*s.words+w] |= bit
}

// Arbitrate implements arb.Arbiter. The decision is word-parallel by
// default: requests are bucketed into class masks, the guaranteed-
// bandwidth winner is the least-recently-granted member of the lowest
// nonempty (requesting AND level-k) plane intersection, and GL/BE
// winners come straight from the LRG priority matrix. It is the only
// decision path: reqs holds at most one request per input (the
// arb.Arbiter contract), so the class masks lose nothing.
//
//ssvc:hotpath
func (s *SSVC) Arbitrate(now noc.Cycle, reqs []arb.Request) int {
	switch {
	case len(reqs) == 0:
		return -1
	case len(reqs) == 1:
		// Nothing to resolve in parallel: a GL request over its budget
		// is refused, anything else wins.
		if reqs[0].Class == noc.GuaranteedLatency && !s.glEligible(now) {
			return -1
		}
		return 0
	case len(s.allMask) == 1:
		return s.arbitrate1(now, reqs)
	}
	return s.arbitrateWide(now, reqs)
}

// arbitrate1 is the single-word decision for radix <= 64: the three
// class masks live in registers and every plane intersection is one AND.
//
//ssvc:hotpath
func (s *SSVC) arbitrate1(now noc.Cycle, reqs []arb.Request) int {
	var glm, gbm, bem uint64
	vticks := s.cfg.Vticks
	reqIdx := s.reqIdx
	for i := range reqs {
		in := reqs[i].Input
		// The &63 matches the wide path: inputs are < radix <= 64 here, so
		// it never changes a valid decision, and it keeps the shift width
		// provably in range for any Request.Input.
		bit := uint64(1) << (uint(in) & 63)
		reqIdx[in] = int32(i)
		switch reqs[i].Class {
		case noc.GuaranteedLatency:
			glm |= bit
		case noc.GuaranteedBandwidth:
			if vticks[in] != 0 {
				gbm |= bit
			} else {
				// No reservation: demoted to best-effort priority.
				bem |= bit
			}
		default:
			bem |= bit
		}
	}
	// Guaranteed latency: absolute priority while within budget; the LRG
	// priority matrix picks among simultaneous GL requesters.
	if glm != 0 && s.cfg.EnableGL && s.glEligible(now) {
		return int(reqIdx[s.lrg.MinRankIn1(glm)])
	}
	// Guaranteed bandwidth: the lowest level plane with a requesting
	// reserved input wins — the plane intersection is the inhibit mask —
	// and the LRG priority matrix breaks ties inside the level.
	if gbm != 0 {
		for k := 0; ; k++ {
			if c := gbm & s.lvl[k]; c != 0 { // one word per plane
				return int(reqIdx[s.lrg.MinRankIn1(c)])
			}
		}
	}
	// Best effort (including unreserved GB): plain LRG.
	if bem != 0 {
		return int(reqIdx[s.lrg.MinRankIn1(bem)])
	}
	return -1
}

// arbitrateWide is the multi-word decision for radix > 64: identical
// structure to arbitrate1 with []uint64 planes.
//
//ssvc:hotpath
func (s *SSVC) arbitrateWide(now noc.Cycle, reqs []arb.Request) int {
	glM, gbM, beM := s.glM, s.gbM, s.beM
	arb.MaskZero(glM)
	arb.MaskZero(gbM)
	arb.MaskZero(beM)
	anyGL, anyGB, anyBE := false, false, false
	vticks := s.cfg.Vticks
	reqIdx := s.reqIdx
	for i := range reqs {
		in := reqs[i].Input
		w, bit := in>>6, uint64(1)<<(uint(in)&63)
		reqIdx[in] = int32(i)
		switch reqs[i].Class {
		case noc.GuaranteedLatency:
			glM[w] |= bit
			anyGL = true
		case noc.GuaranteedBandwidth:
			if vticks[in] != 0 {
				gbM[w] |= bit
				anyGB = true
			} else {
				beM[w] |= bit
				anyBE = true
			}
		default:
			beM[w] |= bit
			anyBE = true
		}
	}
	if anyGL && s.cfg.EnableGL && s.glEligible(now) {
		return int(reqIdx[s.lrg.MinRankIn(glM)])
	}
	if anyGB {
		cand := s.lvlS
		for k := 0; ; k++ {
			lk := s.plane(k)
			any := false
			for w := range cand {
				cand[w] = gbM[w] & lk[w]
				if cand[w] != 0 {
					any = true
				}
			}
			if any {
				return int(reqIdx[s.lrg.MinRankIn(cand)])
			}
		}
	}
	if anyBE {
		return int(reqIdx[s.lrg.MinRankIn(beM)])
	}
	return -1
}
