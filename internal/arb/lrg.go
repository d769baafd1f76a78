package arb

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

// LRGState tracks a least-recently-granted priority order over n inputs.
// The Swizzle Switch holds it as one priority bit per crosspoint pair,
// self-updating on the output bus wires when a grant is made [15]; the
// model holds the same order as recency stamps: stamp[i] is a grant
// counter's value at input i's last grant, so i beats j iff
// stamp[i] < stamp[j]. That comparison is crosspoint bit j of row i,
// which internal/circuit and ssvc-verify model bit by bit and check
// against this state. A grant is one store. The stamps are distinct, so
// they always describe a strict total order.
//
// It is reused as the tie-breaker inside SSVC and as the selector of the
// guaranteed-latency lane, at every radix from the 5-port mesh router to
// the 256-input arbiter: one representation, no size threshold.
type LRGState struct {
	stamp []uint64 // per input: the value of next when it was last granted
	next  uint64   // the stamp the next grant takes; above every stamp
}

// NewLRGState returns an LRG order over inputs 0..n-1, initially in index
// order (input 0 has the highest priority).
func NewLRGState(n int) *LRGState {
	if n <= 0 {
		panic(fmt.Sprintf("arb: LRG size %d must be positive", n))
	}
	s := &LRGState{stamp: make([]uint64, n), next: uint64(n)}
	for i := range s.stamp {
		s.stamp[i] = uint64(i)
	}
	return s
}

// Size returns the number of inputs tracked.
func (s *LRGState) Size() int { return len(s.stamp) }

// HasPriority reports whether input a beats input b under the current
// order, i.e. a was granted less recently than b: crosspoint bit b of
// row a.
//
//ssvc:hotpath
func (s *LRGState) HasPriority(a, b int) bool { return s.stamp[a] < s.stamp[b] }

// Rank returns the position of input i in the priority order (0 = highest
// priority): the number of inputs granted less recently. It scans every
// stamp; an arbiter compares with HasPriority instead.
func (s *LRGState) Rank(i int) int {
	r := 0
	for _, st := range s.stamp {
		if st < s.stamp[i] {
			r++
		}
	}
	return r
}

// Grant records that input i was granted, moving it to the lowest
// priority position. Should the stamps run out, they are first renumbered
// to their ranks, which keeps the order.
//
//ssvc:hotpath
func (s *LRGState) Grant(i int) {
	if s.next == math.MaxUint64 {
		s.rebase(0)
	}
	s.stamp[i] = s.next
	s.next++
}

// rebase renumbers the stamps to from+rank, in order, and the next grant
// to follow them.
func (s *LRGState) rebase(from uint64) {
	for p, i := range s.Order() {
		s.stamp[i] = from + uint64(p)
	}
	s.next = from + uint64(len(s.stamp))
}

// MinRankIn returns the member of mask with the minimum rank — the
// least recently granted candidate, the smallest stamp — or -1 when mask
// is empty. mask must be MaskWords(Size()) long and contain only valid
// input bits.
//
//ssvc:hotpath
func (s *LRGState) MinRankIn(mask []uint64) int {
	best, least := -1, uint64(math.MaxUint64)
	for w, m := range mask {
		for ; m != 0; m &= m - 1 {
			i := w<<6 + bits.TrailingZeros64(m)
			if st := s.stamp[i]; st < least {
				best, least = i, st
			}
		}
	}
	return best
}

// MinRankIn1 is the single-word MinRankIn: the whole candidate set lives
// in one register. Only valid when Size() <= 64.
//
//ssvc:hotpath
func (s *LRGState) MinRankIn1(m uint64) int {
	best, least := -1, uint64(math.MaxUint64)
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if st := s.stamp[i]; st < least {
			best, least = i, st
		}
	}
	return best
}

// Order returns a copy of the current priority order, highest priority
// first.
func (s *LRGState) Order() []int {
	sorted := s.sortedStamps(nil)
	out := make([]int, len(s.stamp))
	for i, st := range s.stamp {
		r, _ := slices.BinarySearch(sorted, st)
		out[r] = i
	}
	return out
}

// sortedStamps returns the stamps in ascending order, in buf's storage
// when it is long enough: an input's rank is its stamp's position there.
func (s *LRGState) sortedStamps(buf []uint64) []uint64 {
	sorted := append(buf[:0], s.stamp...)
	slices.Sort(sorted)
	return sorted
}

// SetOrder installs an explicit priority order (a permutation of 0..n-1).
// It is used by the circuit-equivalence tests to enumerate all valid LRG
// states.
func (s *LRGState) SetOrder(order []int) error {
	n := len(s.stamp)
	if len(order) != n {
		return fmt.Errorf("arb: order length %d != size %d", len(order), n)
	}
	seen := make([]uint64, MaskWords(n))
	for _, v := range order {
		if v < 0 || v >= n || MaskHas(seen, v) {
			return fmt.Errorf("arb: order %v is not a permutation", order)
		}
		MaskSet(seen, v)
	}
	for p, v := range order {
		s.stamp[v] = uint64(p)
	}
	s.next = uint64(n)
	return nil
}

// AppendState appends the priority order as each input's rank, read off
// one sort of the stamps (on the stack up to 64 inputs). The ranks say
// everything the n*n crosspoint bits do; the stamps' absolute values are
// history.
func (s *LRGState) AppendState(b []byte) []byte {
	var buf [64]uint64
	sorted := s.sortedStamps(buf[:])
	for _, st := range s.stamp {
		r, _ := slices.BinarySearch(sorted, st)
		b = wire.Int(b, r)
	}
	return b
}

// RestoreState reads what AppendState wrote and installs the order; ranks
// that are not a permutation of 0..n-1 are refused and leave the state as
// it was.
func (s *LRGState) RestoreState(r *wire.Reader) error {
	n := len(s.stamp)
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i := 0; i < n; i++ {
		if rank := r.Index(n); r.Err() == nil && order[rank] < 0 {
			order[rank] = i
		} else {
			r.Failf("arb: LRG rank %d given twice", rank)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return s.SetOrder(order)
}

// LRG is the Swizzle Switch's default least-recently-granted arbiter: the
// winner is the requesting input granted longest ago. It is
// class-unaware — the "No QoS" configuration of Figure 4(a), under which
// all flows converge to an equal share of bandwidth during congestion.
type LRG struct {
	unclocked
	state *LRGState
}

// NewLRG returns an LRG arbiter over n inputs.
func NewLRG(n int) *LRG { return &LRG{state: NewLRGState(n)} }

// Arbitrate implements Arbiter: a knockout over the requests, one
// crosspoint bit per comparison. An input that repeats loses to its own
// earlier request, so the first of them stands, as in a rank scan.
//
//ssvc:hotpath
func (a *LRG) Arbitrate(now noc.Cycle, reqs []Request) int {
	best := -1
	for i := range reqs {
		if best < 0 || a.state.HasPriority(reqs[i].Input, reqs[best].Input) {
			best = i
		}
	}
	return best
}

// Granted implements Arbiter.
func (a *LRG) Granted(now noc.Cycle, req Request) { a.state.Grant(req.Input) }

// State exposes the underlying LRG order for inspection in tests.
func (a *LRG) State() *LRGState { return a.state }
