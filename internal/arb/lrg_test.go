package arb

import (
	"math"
	"testing"
	"testing/quick"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

func req(input int) Request {
	return Request{Input: input, Class: noc.BestEffort, Packet: &noc.Packet{Src: input}}
}

func TestLRGStateInitialOrder(t *testing.T) {
	s := NewLRGState(4)
	want := []int{0, 1, 2, 3}
	got := s.Order()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("initial order = %v, want %v", got, want)
		}
	}
}

func TestLRGStateGrantMovesToBack(t *testing.T) {
	s := NewLRGState(4)
	s.Grant(0)
	if got := s.Order(); got[3] != 0 || got[0] != 1 {
		t.Fatalf("after granting 0, order = %v, want [1 2 3 0]", got)
	}
	s.Grant(2)
	if got := s.Order(); got[3] != 2 || got[2] != 0 {
		t.Fatalf("after granting 2, order = %v, want [1 3 0 2]", got)
	}
}

func TestLRGStatePick(t *testing.T) {
	s := NewLRGState(4)
	s.Grant(0) // order 1 2 3 0
	if got := s.Pick([]int{0, 3}); got != 3 {
		t.Errorf("Pick{0,3} = %d, want 3", got)
	}
	if got := s.Pick([]int{0}); got != 0 {
		t.Errorf("Pick{0} = %d, want 0", got)
	}
	if got := s.Pick(nil); got != -1 {
		t.Errorf("Pick{} = %d, want -1", got)
	}
}

func TestLRGStateHasPriorityAntisymmetric(t *testing.T) {
	s := NewLRGState(5)
	s.Grant(3)
	s.Grant(1)
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a == b {
				continue
			}
			if s.HasPriority(a, b) == s.HasPriority(b, a) {
				t.Fatalf("HasPriority not antisymmetric for %d,%d", a, b)
			}
		}
	}
}

func TestLRGStateSetOrder(t *testing.T) {
	s := NewLRGState(3)
	if err := s.SetOrder([]int{2, 0, 1}); err != nil {
		t.Fatalf("SetOrder: %v", err)
	}
	if s.Rank(2) != 0 || s.Rank(0) != 1 || s.Rank(1) != 2 {
		t.Fatalf("ranks after SetOrder: %d %d %d", s.Rank(0), s.Rank(1), s.Rank(2))
	}
	if err := s.SetOrder([]int{0, 0, 1}); err == nil {
		t.Error("SetOrder accepted a non-permutation")
	}
	if err := s.SetOrder([]int{0, 1}); err == nil {
		t.Error("SetOrder accepted a short order")
	}
	if err := s.SetOrder([]int{0, 1, 3}); err == nil {
		t.Error("SetOrder accepted an out-of-range value")
	}
}

func TestLRGStateRankInvariant(t *testing.T) {
	// Property: after any grant sequence, rank is the inverse of order.
	f := func(grants []uint8) bool {
		s := NewLRGState(6)
		for _, g := range grants {
			s.Grant(int(g % 6))
		}
		for pos, in := range s.Order() {
			if s.Rank(in) != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLRGArbiterPicksLeastRecentlyGranted(t *testing.T) {
	a := NewLRG(4)
	reqs := []Request{req(2), req(1), req(3)}
	w := a.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner = input %d, want 1", reqs[w].Input)
	}
	a.Granted(0, reqs[w])
	w = a.Arbitrate(1, reqs)
	if reqs[w].Input != 2 {
		t.Fatalf("second winner = input %d, want 2", reqs[w].Input)
	}
}

func TestLRGArbiterNoRequests(t *testing.T) {
	a := NewLRG(4)
	if w := a.Arbitrate(0, nil); w != -1 {
		t.Fatalf("Arbitrate(nil) = %d, want -1", w)
	}
}

func TestLRGArbiterFairnessUnderSaturation(t *testing.T) {
	// With all inputs always requesting, LRG must rotate through every
	// input: over n*k grants each input wins exactly k times.
	const n, rounds = 8, 100
	a := NewLRG(n)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = req(i)
	}
	wins := make([]int, n)
	for g := 0; g < n*rounds; g++ {
		w := a.Arbitrate(noc.Cycle(g), reqs)
		wins[reqs[w].Input]++
		a.Granted(noc.Cycle(g), reqs[w])
	}
	for i, w := range wins {
		if w != rounds {
			t.Errorf("input %d won %d times, want %d", i, w, rounds)
		}
	}
}

func TestNewLRGStatePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRGState(0) did not panic")
		}
	}()
	NewLRGState(0)
}

// lrgList is the move-to-back list the priority matrix replaced, kept as
// its reference: order[0] is the least recently granted input, rank is
// the inverse permutation, and a grant moves the input to the back.
type lrgList struct {
	order []int
	rank  []int
}

func newLRGList(n int) *lrgList {
	l := &lrgList{order: make([]int, n), rank: make([]int, n)}
	for i := range l.order {
		l.order[i], l.rank[i] = i, i
	}
	return l
}

func (l *lrgList) grant(i int) {
	r := l.rank[i]
	copy(l.order[r:], l.order[r+1:])
	l.order[len(l.order)-1] = i
	for p := r; p < len(l.order); p++ {
		l.rank[l.order[p]] = p
	}
}

func (l *lrgList) setOrder(order []int) {
	copy(l.order, order)
	for p, v := range l.order {
		l.rank[v] = p
	}
}

// pick returns the candidate with the smallest rank, or -1.
func (l *lrgList) pick(cand []int) int {
	best := -1
	for _, c := range cand {
		if best < 0 || l.rank[c] < l.rank[best] {
			best = c
		}
	}
	return best
}

// checkLRGAgainstList compares every query of the matrix with the list
// for one candidate set: Rank and Order over all inputs (so the ranks are
// a permutation of 0..n-1 and the matrix a strict total order),
// HasPriority over the candidate pairs plus the diagonal, and Pick,
// MinRankIn and (when one word holds the state) MinRankIn1 on the set.
func checkLRGAgainstList(t testing.TB, step string, s *LRGState, l *lrgList, cand []int) {
	t.Helper()
	n := s.Size()
	order := s.Order()
	for p, in := range order {
		if in != l.order[p] || s.Rank(in) != p {
			t.Fatalf("n=%d %s: Order()=%v Rank(%d)=%d, list order %v", n, step, order, in, s.Rank(in), l.order)
		}
	}
	for i := 0; i < n; i++ {
		if s.HasPriority(i, i) {
			t.Fatalf("n=%d %s: HasPriority(%d,%d) on the diagonal", n, step, i, i)
		}
	}
	mask := make([]uint64, MaskWords(n))
	for _, a := range cand {
		MaskSet(mask, a)
		for _, b := range cand {
			if got, want := s.HasPriority(a, b), l.rank[a] < l.rank[b]; got != want {
				t.Fatalf("n=%d %s: HasPriority(%d,%d)=%v, list says %v (order %v)", n, step, a, b, got, want, l.order)
			}
		}
	}
	want := l.pick(cand)
	if got := s.Pick(cand); got != want {
		t.Fatalf("n=%d %s: Pick(%v)=%d, list says %d (order %v)", n, step, cand, got, want, l.order)
	}
	if got := s.MinRankIn(mask); got != want {
		t.Fatalf("n=%d %s: MinRankIn(%v)=%d, list says %d (order %v)", n, step, cand, got, want, l.order)
	}
	if len(mask) == 1 {
		if got := s.MinRankIn1(mask[0]); got != want {
			t.Fatalf("n=%d %s: MinRankIn1(%#x)=%d, list says %d (order %v)", n, step, mask[0], got, want, l.order)
		}
	}
}

// TestLRGMatrixMatchesList drives the priority matrix and the move-to-back
// list through the same random grants and explicit orders and compares
// every query after every step, on empty, single-input, sparse and full
// candidate sets, at sizes on both sides of each word boundary.
func TestLRGMatrixMatchesList(t *testing.T) {
	rng := traffic.NewRNG(7)
	for _, n := range []int{1, 2, 5, 8, 9, 63, 64, 65, 130, 257} {
		s, l := NewLRGState(n), newLRGList(n)
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		check := func(step string) {
			t.Helper()
			checkLRGAgainstList(t, step, s, l, nil)
			checkLRGAgainstList(t, step, s, l, []int{rng.Intn(n)})
			var cand []int
			for i := 0; i < n; i++ {
				if rng.Bernoulli(0.3) {
					cand = append(cand, i)
				}
			}
			checkLRGAgainstList(t, step, s, l, cand)
			checkLRGAgainstList(t, step, s, l, all)
		}
		check("initial")
		steps := 4 * n
		if steps > 200 {
			steps = 200 // each check is O(n^2) at full candidate sets
		}
		for round := 0; round < 2; round++ {
			for g := 0; g < steps; g++ {
				i := rng.Intn(n)
				s.Grant(i)
				l.grant(i)
				check("after grant")
			}
			order := append([]int(nil), l.order...)
			for i := range order {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], order[i]
			}
			if err := s.SetOrder(order); err != nil {
				t.Fatal(err)
			}
			l.setOrder(order)
			check("after SetOrder")
		}
	}
}

// TestLRGStampRenumber runs the stamps up to the end of their range
// through the rebase hook and grants across it: the grant that finds next
// at 2^64-1 renumbers the stamps to their ranks first, and every query
// before and after must still match the list.
func TestLRGStampRenumber(t *testing.T) {
	rng := traffic.NewRNG(3)
	for _, n := range []int{1, 2, 5, 64, 65, 130} {
		s, l := NewLRGState(n), newLRGList(n)
		for g := 0; g < 3*n; g++ {
			i := rng.Intn(n)
			s.Grant(i)
			l.grant(i)
		}
		s.rebase(math.MaxUint64 - uint64(n) - 3)
		checkLRGAgainstList(t, "after rebase", s, l, nil)
		wrapped := false
		for g := 0; g < 8; g++ {
			i := rng.Intn(n)
			s.Grant(i)
			l.grant(i)
			wrapped = wrapped || s.next < math.MaxUint64-uint64(n)
			var cand []int
			for j := 0; j < n; j++ {
				if rng.Bernoulli(0.5) {
					cand = append(cand, j)
				}
			}
			checkLRGAgainstList(t, "across the wrap", s, l, cand)
		}
		if !wrapped || s.next != uint64(n)+5 {
			t.Fatalf("n=%d: next is %d after the wrap, want the stamps renumbered (%d)", n, s.next, n+5)
		}
	}
}

// FuzzLRGMatrix interprets its input as a program over one LRG state —
// the first byte picks the size, then each byte is a grant, an explicit
// rotation of the order, or a query on a candidate set drawn from the
// following bytes — and holds the matrix to the list throughout.
func FuzzLRGMatrix(f *testing.F) {
	f.Add([]byte{4, 0, 1, 2, 3})
	f.Add([]byte{63, 200, 7, 130, 9, 255, 1, 2, 3, 64})
	f.Add([]byte{64, 5, 5, 192, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{129, 128, 64, 0, 250, 3, 66, 128, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		n := 1 + int(prog[0])%130
		s, l := NewLRGState(n), newLRGList(n)
		for pc := 1; pc < len(prog); pc++ {
			op := prog[pc]
			switch {
			case op < 192:
				i := int(op) % n
				s.Grant(i)
				l.grant(i)
			case op < 224:
				// Install the current order rotated by the next byte.
				k := 0
				if pc+1 < len(prog) {
					pc++
					k = int(prog[pc]) % n
				}
				order := append(append([]int(nil), l.order[k:]...), l.order[:k]...)
				if err := s.SetOrder(order); err != nil {
					t.Fatal(err)
				}
				l.setOrder(order)
			default:
				// Query on the inputs named by up to eight following bytes.
				var cand []int
				for k := 0; k < int(op&7)+1 && pc+1 < len(prog); k++ {
					pc++
					cand = append(cand, int(prog[pc])%n)
				}
				checkLRGAgainstList(t, "query", s, l, cand)
			}
		}
		checkLRGAgainstList(t, "end", s, l, nil)
	})
}

// Pick returns the least recently granted input among candidates, or -1 if
// candidates is empty.
func (s *LRGState) Pick(candidates []int) int {
	best := -1
	for _, c := range candidates {
		if best < 0 || s.HasPriority(c, best) {
			best = c
		}
	}
	return best
}
