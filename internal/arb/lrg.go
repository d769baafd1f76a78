package arb

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/noc"
)

// LRGState tracks a least-recently-granted priority order over n inputs.
// order[0] is the least recently granted input (highest priority); granting
// an input moves it to the back (lowest priority).
//
// In the Swizzle Switch the LRG order is held as per-crosspoint priority
// bits that self-update on the output bus wires [15]; this is the
// behavioural equivalent. It is reused as the tie-breaker inside SSVC and
// as the selector of the guaranteed-latency lane.
//
// Alongside the order/rank arrays the state keeps rank *bitplanes*:
// planes[b] has input i's bit set iff bit b of rank[i] is set. The planes
// are what the word-parallel arbitration path selects against: MinRankIn
// finds the least-recently-granted member of a candidate mask in
// O(log n) word operations instead of a per-input scan, the software
// equivalent of the per-crosspoint priority wires resolving in one
// bitline discharge.
type LRGState struct {
	order []int // permutation of 0..n-1
	rank  []int // rank[i] = position of input i in order

	planes   [][]uint64 // planes[b]: inputs whose rank has bit b set
	gtS      []uint64   // Grant scratch: inputs with rank > r
	eqS      []uint64   // Grant scratch: rank-comparison equality prefix
	minS     []uint64   // MinRankIn scratch (multi-word path)
	minT     []uint64   // MinRankIn scratch (multi-word path)
	rankBits int        // number of planes = bits.Len(n-1)

	// usePlanes gates the word-parallel machinery on size: below
	// planeThreshold inputs a scalar rank scan beats the bit-sliced
	// passes, so Grant skips plane maintenance and MinRankIn scans —
	// deciding identically, since the minimum rank in a set is unique.
	usePlanes bool
}

// planeThreshold is the input count above which the rank planes pay for
// themselves. A 5-port mesh router or an 8-port Clos leaf resolves faster
// element-wise; the high-radix crossbar is where the bitlines win.
const planeThreshold = 8

// NewLRGState returns an LRG order over inputs 0..n-1, initially in index
// order (input 0 has the highest priority).
func NewLRGState(n int) *LRGState {
	if n <= 0 {
		panic(fmt.Sprintf("arb: LRG size %d must be positive", n))
	}
	words := MaskWords(n)
	s := &LRGState{
		order:     make([]int, n),
		rank:      make([]int, n),
		rankBits:  bits.Len(uint(n - 1)),
		gtS:       make([]uint64, words),
		eqS:       make([]uint64, words),
		minS:      make([]uint64, words),
		minT:      make([]uint64, words),
		usePlanes: n > planeThreshold,
	}
	s.planes = make([][]uint64, s.rankBits)
	for b := range s.planes {
		s.planes[b] = make([]uint64, words)
	}
	for i := range s.order {
		s.order[i] = i
		s.rank[i] = i
	}
	s.rebuildPlanes()
	return s
}

// rebuildPlanes re-derives every rank plane from the rank array.
func (s *LRGState) rebuildPlanes() {
	if !s.usePlanes {
		return
	}
	for b := range s.planes {
		MaskZero(s.planes[b])
		for i, r := range s.rank {
			if r>>uint(b)&1 != 0 {
				MaskSet(s.planes[b], i)
			}
		}
	}
}

// Size returns the number of inputs tracked.
func (s *LRGState) Size() int { return len(s.order) }

// Pick returns the least recently granted input among candidates, or -1 if
// candidates is empty.
func (s *LRGState) Pick(candidates []int) int {
	best, bestRank := -1, len(s.order)
	for _, c := range candidates {
		if r := s.rank[c]; r < bestRank {
			best, bestRank = c, r
		}
	}
	return best
}

// HasPriority reports whether input a beats input b under the current
// order, i.e. a was granted less recently than b.
func (s *LRGState) HasPriority(a, b int) bool { return s.rank[a] < s.rank[b] }

// Rank returns the position of input i in the priority order (0 = highest
// priority).
func (s *LRGState) Rank(i int) int { return s.rank[i] }

// Grant records that input i was granted, moving it to the lowest
// priority position. The rank planes are maintained word-parallel: the
// set of inputs ranked below i is found with a bit-sliced comparison
// against r, their ranks are decremented with a bit-sliced borrow
// ripple, and i's bits are rewritten from r to n-1.
//
//ssvc:hotpath
func (s *LRGState) Grant(i int) {
	r := s.rank[i]
	n := len(s.order)
	copy(s.order[r:], s.order[r+1:])
	s.order[n-1] = i
	for p := r; p < n; p++ {
		s.rank[s.order[p]] = p
	}
	if !s.usePlanes {
		return
	}

	// Rank planes. gt = inputs whose (pre-grant) rank exceeded r; their
	// ranks all decrement by one. eq narrows to inputs matching r on the
	// bits compared so far.
	gt, eq := s.gtS, s.eqS
	for w := range eq {
		gt[w] = 0
		eq[w] = ^uint64(0)
	}
	for b := s.rankBits - 1; b >= 0; b-- {
		pb := s.planes[b]
		if r>>uint(b)&1 == 0 {
			for w := range pb {
				gt[w] |= eq[w] & pb[w]
				eq[w] &^= pb[w]
			}
		} else {
			for w := range pb {
				eq[w] &= pb[w]
			}
		}
	}
	// Bit-sliced decrement of every lane in gt: bits flip from the least
	// significant position up to and including each lane's first set bit.
	for b := 0; b < s.rankBits; b++ {
		pb := s.planes[b]
		done := true
		for w := range pb {
			old := pb[w]
			pb[w] = old ^ gt[w]
			gt[w] &^= old
			if gt[w] != 0 {
				done = false
			}
		}
		if done {
			break
		}
	}
	// Input i moves from rank r to rank n-1: flip the differing bits.
	for b := 0; b < s.rankBits; b++ {
		if (r^(n-1))>>uint(b)&1 != 0 {
			s.planes[b][i>>6] ^= 1 << (uint(i) & 63)
		}
	}
}

// MinRankIn returns the member of mask with the minimum rank — the
// least recently granted candidate — or -1 when mask is empty. mask
// must be MaskWords(Size()) long and contain only valid input bits.
//
// This is the word-parallel selection primitive: scanning the rank
// planes from the most significant bit down, candidates with the bit
// clear (smaller rank) eliminate those with it set, exactly as a
// discharged bitline inhibits the inputs it dominates. Because ranks
// are a permutation, exactly one candidate survives.
//
//ssvc:hotpath
func (s *LRGState) MinRankIn(mask []uint64) int {
	if len(mask) == 1 {
		return s.MinRankIn1(mask[0])
	}
	if !s.usePlanes {
		best, bestRank := -1, len(s.order)
		for w, m := range mask {
			for m != 0 {
				i := w<<6 + bits.TrailingZeros64(m)
				m &= m - 1
				if r := s.rank[i]; r < bestRank {
					best, bestRank = i, r
				}
			}
		}
		return best
	}
	cur := s.minS
	copy(cur, mask)
	if !MaskAny(cur) {
		return -1
	}
	next := s.minT
	for b := s.rankBits - 1; b >= 0; b-- {
		pb := s.planes[b]
		any := false
		for w := range cur {
			next[w] = cur[w] &^ pb[w]
			if next[w] != 0 {
				any = true
			}
		}
		if any {
			cur, next = next, cur
		}
	}
	return MaskFirst(cur)
}

// MinRankIn1 is the single-word MinRankIn: the whole candidate set lives
// in one register, so each rank plane resolves in two ALU ops.
// Only valid when Size() <= 64.
//
//ssvc:hotpath
func (s *LRGState) MinRankIn1(m uint64) int {
	if m == 0 {
		return -1
	}
	if !s.usePlanes {
		best, bestRank := -1, len(s.order)
		for ; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if r := s.rank[i]; r < bestRank {
				best, bestRank = i, r
			}
		}
		return best
	}
	for b := s.rankBits - 1; b >= 0; b-- {
		if t := m &^ s.planes[b][0]; t != 0 {
			m = t
		}
	}
	return bits.TrailingZeros64(m)
}

// Order returns a copy of the current priority order, highest priority
// first.
func (s *LRGState) Order() []int {
	out := make([]int, len(s.order))
	copy(out, s.order)
	return out
}

// SetOrder installs an explicit priority order (a permutation of 0..n-1).
// It is used by the circuit-equivalence tests to enumerate all valid LRG
// states.
func (s *LRGState) SetOrder(order []int) error {
	if len(order) != len(s.order) {
		return fmt.Errorf("arb: order length %d != size %d", len(order), len(s.order))
	}
	seen := make([]bool, len(order))
	for _, v := range order {
		if v < 0 || v >= len(order) || seen[v] {
			return fmt.Errorf("arb: order %v is not a permutation", order)
		}
		seen[v] = true
	}
	copy(s.order, order)
	for p, v := range s.order {
		s.rank[v] = p
	}
	s.rebuildPlanes()
	return nil
}

// LRG is the Swizzle Switch's default least-recently-granted arbiter: the
// winner is the requesting input granted longest ago. It is
// class-unaware — the "No QoS" configuration of Figure 4(a), under which
// all flows converge to an equal share of bandwidth during congestion.
type LRG struct {
	unclocked
	state *LRGState
	cand  []int
	mask  []uint64 // scratch request mask for the word-parallel path
}

// NewLRG returns an LRG arbiter over n inputs.
func NewLRG(n int) *LRG {
	return &LRG{state: NewLRGState(n), cand: make([]int, 0, n), mask: make([]uint64, MaskWords(n))}
}

// Arbitrate implements Arbiter. Dense request sets resolve word-parallel
// against the rank bitplanes; tiny sets (and the degenerate case of a
// duplicated input, which the bitmask cannot represent) fall back to the
// element-wise scan, which is faster below a handful of requests and
// decides identically.
//
//ssvc:hotpath
func (a *LRG) Arbitrate(now noc.Cycle, reqs []Request) int {
	if len(reqs) == 0 {
		return -1
	}
	if len(reqs) > 4 {
		MaskZero(a.mask)
		dup := false
		for i := range reqs {
			if MaskHas(a.mask, reqs[i].Input) {
				dup = true
				break
			}
			MaskSet(a.mask, reqs[i].Input)
		}
		if !dup {
			w := a.state.MinRankIn(a.mask)
			for i := range reqs {
				if reqs[i].Input == w {
					return i
				}
			}
			return -1
		}
	}
	best, bestRank := -1, a.state.Size()
	for i, r := range reqs {
		if rk := a.state.Rank(r.Input); rk < bestRank {
			best, bestRank = i, rk
		}
	}
	return best
}

// Granted implements Arbiter.
func (a *LRG) Granted(now noc.Cycle, req Request) { a.state.Grant(req.Input) }

// State exposes the underlying LRG order for inspection in tests.
func (a *LRG) State() *LRGState { return a.state }
