package arb

import (
	"math"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// rankByStamp is OrigVC's and PVC's selection as it read before the LRG
// state kept stamps: the smallest packet stamp wins and the smaller Rank
// breaks a tie, so an input that repeats keeps its first request.
func rankByStamp(s *LRGState, reqs []Request) int {
	best := -1
	bestStamp := noc.VTime(math.MaxUint64)
	bestRank := s.Size()
	for i, r := range reqs {
		st := r.Packet.Stamp
		rk := s.Rank(r.Input)
		if best == -1 || st < bestStamp || (st == bestStamp && rk < bestRank) {
			best, bestStamp, bestRank = i, st, rk
		}
	}
	return best
}

// rankByFinish is WFQ's selection keyed on Rank.
func rankByFinish(a *WFQ, reqs []Request) int {
	best := -1
	bestF := math.Inf(1)
	bestRank := a.state.Size()
	for i, r := range reqs {
		f := a.stamps[r.Packet]
		rk := a.state.Rank(r.Input)
		if f < bestF || (f == bestF && rk < bestRank) {
			best, bestF, bestRank = i, f, rk
		}
	}
	return best
}

// rankByLevel is MultiLevel's selection keyed on Rank.
func rankByLevel(a *MultiLevel, reqs []Request) int {
	best := -1
	bestLevel := -1
	bestRank := a.state.Size()
	for i, r := range reqs {
		lv := a.levels(r)
		rk := a.state.Rank(r.Input)
		if lv > bestLevel || (lv == bestLevel && rk < bestRank) {
			best, bestLevel, bestRank = i, lv, rk
		}
	}
	return best
}

// TestListArbitersMatchRankReference holds the list arbiters, which
// break ties with HasPriority, to the Rank-keyed loops they ran before:
// random orders, request sets with repeated inputs and tied keys
// (infinite and NaN finish times and levels below -1 included), at sizes
// on both sides of a word.
func TestListArbitersMatchRankReference(t *testing.T) {
	rng := traffic.NewRNG(11)
	finishes := []float64{0, 1, 1, 2, math.Inf(1), math.NaN()}
	levelOf := []int{-2, -1, -1, 0, 1, 1, 2}
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130} {
		vt := make([]noc.VTime, n)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
		ov, pvc, wfq := NewOrigVC(n, vt), NewPVC(n, vt, 4), NewWFQ(weights)
		ml := NewMultiLevel(n, func(r Request) int { return levelOf[r.Packet.Length%len(levelOf)] })
		for trial := 0; trial < 300; trial++ {
			for _, s := range []*LRGState{ov.state, pvc.state, wfq.state, ml.state} {
				for g := rng.Intn(4); g > 0; g-- {
					s.Grant(rng.Intn(n))
				}
			}
			reqs := make([]Request, rng.Intn(9))
			for k := range reqs {
				in := rng.Intn(n)
				if k > 0 && rng.Bernoulli(0.2) {
					in = reqs[rng.Intn(k)].Input
				}
				p := &noc.Packet{Src: in, Stamp: noc.VTime(rng.Intn(3)), Length: rng.Intn(len(levelOf))}
				if rng.Bernoulli(0.1) {
					p.Stamp = math.MaxUint64
				}
				wfq.stamps[p] = finishes[rng.Intn(len(finishes))]
				reqs[k] = Request{Input: in, Class: noc.BestEffort, Packet: p}
			}
			if got, want := ov.Arbitrate(0, reqs), rankByStamp(ov.state, reqs); got != want {
				t.Fatalf("n=%d trial %d: OrigVC picked %d, the Rank loop %d (order %v)", n, trial, got, want, ov.state.Order())
			}
			if got, want := pvc.Arbitrate(0, reqs), rankByStamp(pvc.state, reqs); got != want {
				t.Fatalf("n=%d trial %d: PVC picked %d, the Rank loop %d (order %v)", n, trial, got, want, pvc.state.Order())
			}
			if got, want := wfq.Arbitrate(0, reqs), rankByFinish(wfq, reqs); got != want {
				t.Fatalf("n=%d trial %d: WFQ picked %d, the Rank loop %d (order %v)", n, trial, got, want, wfq.state.Order())
			}
			if got, want := ml.Arbitrate(0, reqs), rankByLevel(ml, reqs); got != want {
				t.Fatalf("n=%d trial %d: MultiLevel picked %d, the Rank loop %d (order %v)", n, trial, got, want, ml.state.Order())
			}
			clear(wfq.stamps)
		}
	}
}
