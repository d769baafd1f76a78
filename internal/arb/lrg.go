package arb

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

// LRGState tracks a least-recently-granted priority order over n inputs
// as the Swizzle Switch holds it: one priority bit per crosspoint pair,
// self-updating on the output bus wires when a grant is made [15]. Row i
// is input i's priority vector: bit j is set iff i was granted less
// recently than j, so i beats j. The rows always describe a strict total
// order (exactly one of bit j of row i and bit i of row j is set, the
// diagonal is clear), which is what lets a winner be found by
// elimination and a rank be read as a population count.
//
// It is reused as the tie-breaker inside SSVC and as the selector of the
// guaranteed-latency lane, at every radix from the 5-port mesh router to
// the 256-input arbiter: one representation, no size threshold.
type LRGState struct {
	n     int
	words int      // MaskWords(n): the length of one row
	rows  []uint64 // n rows of words words each, row i at [i*words, (i+1)*words)
}

// NewLRGState returns an LRG order over inputs 0..n-1, initially in index
// order (input 0 has the highest priority).
func NewLRGState(n int) *LRGState {
	if n <= 0 {
		panic(fmt.Sprintf("arb: LRG size %d must be positive", n))
	}
	s := &LRGState{n: n, words: MaskWords(n)}
	s.rows = make([]uint64, n*s.words)
	for i := 0; i < n; i++ {
		row := s.row(i)
		for j := i + 1; j < n; j++ {
			MaskSet(row, j)
		}
	}
	return s
}

// row returns input i's priority vector.
//
//ssvc:hotpath
func (s *LRGState) row(i int) []uint64 { return s.rows[i*s.words : (i+1)*s.words] }

// Size returns the number of inputs tracked.
func (s *LRGState) Size() int { return s.n }

// HasPriority reports whether input a beats input b under the current
// order, i.e. a was granted less recently than b: one crosspoint bit.
//
//ssvc:hotpath
func (s *LRGState) HasPriority(a, b int) bool { return MaskHas(s.row(a), b) }

// Rank returns the position of input i in the priority order (0 = highest
// priority): the number of inputs i does not beat, itself excluded.
//
//ssvc:hotpath
func (s *LRGState) Rank(i int) int { return s.n - 1 - MaskCount(s.row(i)) }

// Grant records that input i was granted, moving it to the lowest
// priority position: every other input now beats i (column i is set) and
// i beats nobody (row i is cleared). Up to radix 64 a row is one word and
// the column is the whole array, 512 contiguous bytes at radix 64, ORed
// four rows to a step; at larger radices only the word of each row that
// holds bit i changes.
//
//ssvc:hotpath
func (s *LRGState) Grant(i int) {
	bit := uint64(1) << (uint(i) & 63)
	rows, step := s.rows, s.words
	if step == 1 {
		for ; len(rows) >= 4; rows = rows[4:] {
			rows[0] |= bit
			rows[1] |= bit
			rows[2] |= bit
			rows[3] |= bit
		}
		for k := range rows {
			rows[k] |= bit
		}
		s.rows[i] = 0
		return
	}
	for w := i >> 6; w < len(rows); w += step {
		rows[w] |= bit
	}
	MaskZero(s.row(i))
}

// MinRankIn returns the member of mask with the minimum rank — the
// least recently granted candidate — or -1 when mask is empty. mask
// must be MaskWords(Size()) long and contain only valid input bits.
//
// The winner is found by elimination, as the priority wires do it: take
// any candidate, strike out everyone it beats, and if somebody is left
// they all beat it, so move to one of them and repeat. Each step costs
// one row word and discards the candidate together with everything
// ranked below it, so it ends after about log2 of the candidates and
// never more than their number.
//
//ssvc:hotpath
func (s *LRGState) MinRankIn(mask []uint64) int {
	best := -1
	var row []uint64
	for w, m := range mask {
		if best >= 0 {
			m &^= row[w]
		}
		for m != 0 {
			best = w<<6 + bits.TrailingZeros64(m)
			row = s.row(best)
			m &^= row[w] | 1<<(uint(best)&63)
		}
	}
	return best
}

// MinRankIn1 is the single-word MinRankIn: the whole candidate set lives
// in one register and each row is one word. Only valid when Size() <= 64.
//
//ssvc:hotpath
func (s *LRGState) MinRankIn1(m uint64) int {
	best := -1
	for m != 0 {
		best = bits.TrailingZeros64(m)
		m &^= s.rows[best] | 1<<uint(best)
	}
	return best
}

// Order returns a copy of the current priority order, highest priority
// first.
func (s *LRGState) Order() []int {
	out := make([]int, s.n)
	for i := range out {
		out[s.Rank(i)] = i
	}
	return out
}

// SetOrder installs an explicit priority order (a permutation of 0..n-1).
// It is used by the circuit-equivalence tests to enumerate all valid LRG
// states.
func (s *LRGState) SetOrder(order []int) error {
	if len(order) != s.n {
		return fmt.Errorf("arb: order length %d != size %d", len(order), s.n)
	}
	seen := make([]uint64, s.words)
	for _, v := range order {
		if v < 0 || v >= s.n || MaskHas(seen, v) {
			return fmt.Errorf("arb: order %v is not a permutation", order)
		}
		MaskSet(seen, v)
	}
	// Walking from the back, each input beats exactly those placed so far.
	MaskZero(seen)
	for p := s.n - 1; p >= 0; p-- {
		copy(s.row(order[p]), seen)
		MaskSet(seen, order[p])
	}
	return nil
}

// AppendState appends the priority order as each input's rank. The rows
// are a strict total order, so the n ranks say everything the n*n
// crosspoint bits do.
func (s *LRGState) AppendState(b []byte) []byte {
	for i := 0; i < s.n; i++ {
		b = wire.Int(b, s.Rank(i))
	}
	return b
}

// RestoreState reads what AppendState wrote and installs the order; ranks
// that are not a permutation of 0..n-1 are refused and leave the state as
// it was.
func (s *LRGState) RestoreState(r *wire.Reader) error {
	order := make([]int, s.n)
	for i := range order {
		order[i] = -1
	}
	for i := 0; i < s.n; i++ {
		if rank := r.Index(s.n); r.Err() == nil && order[rank] < 0 {
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
