package arb

import (
	"testing"

	"swizzleqos/internal/noc"
)

func TestRoundRobinRotates(t *testing.T) {
	a := NewRoundRobin(4)
	reqs := []Request{req(0), req(1), req(2), req(3)}
	want := []int{0, 1, 2, 3, 0, 1}
	for i, exp := range want {
		w := a.Arbitrate(noc.Cycle(i), reqs)
		if reqs[w].Input != exp {
			t.Fatalf("grant %d: winner %d, want %d", i, reqs[w].Input, exp)
		}
		a.Granted(noc.Cycle(i), reqs[w])
	}
}

func TestRoundRobinSkipsNonRequesting(t *testing.T) {
	a := NewRoundRobin(4)
	reqs := []Request{req(1), req(3)}
	w := a.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want 1", reqs[w].Input)
	}
	a.Granted(0, reqs[w])
	// Pointer at 2; 3 is the next requester.
	w = a.Arbitrate(1, reqs)
	if reqs[w].Input != 3 {
		t.Fatalf("winner %d, want 3", reqs[w].Input)
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	a := NewRoundRobin(2)
	if w := a.Arbitrate(0, nil); w != -1 {
		t.Fatalf("Arbitrate(nil) = %d, want -1", w)
	}
}

func classReq(input int, c noc.Class) Request {
	return Request{Input: input, Class: c, Packet: &noc.Packet{Src: input, Class: c}}
}

func TestMultiLevelStrictPriority(t *testing.T) {
	a := NewMultiLevel(4, nil)
	reqs := []Request{
		classReq(0, noc.BestEffort),
		classReq(1, noc.GuaranteedLatency),
		classReq(2, noc.GuaranteedBandwidth),
	}
	w := a.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want the GL input 1", reqs[w].Input)
	}
}

func TestMultiLevelLRGWithinLevel(t *testing.T) {
	a := NewMultiLevel(4, nil)
	reqs := []Request{
		classReq(2, noc.GuaranteedBandwidth),
		classReq(1, noc.GuaranteedBandwidth),
	}
	w := a.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want 1 (lower LRG rank)", reqs[w].Input)
	}
	a.Granted(0, reqs[w])
	w = a.Arbitrate(1, reqs)
	if reqs[w].Input != 2 {
		t.Fatalf("second winner %d, want 2", reqs[w].Input)
	}
}

func TestMultiLevelStarvation(t *testing.T) {
	// The paper's criticism of fixed-priority QoS [14]: a persistent
	// high level starves lower levels completely.
	a := NewMultiLevel(2, nil)
	reqs := []Request{
		classReq(0, noc.GuaranteedBandwidth),
		classReq(1, noc.BestEffort),
	}
	for c := 0; c < 1000; c++ {
		w := a.Arbitrate(noc.Cycle(c), reqs)
		if reqs[w].Input != 0 {
			t.Fatalf("cycle %d: best-effort input won under fixed priority", c)
		}
		a.Granted(noc.Cycle(c), reqs[w])
	}
}

func TestMultiLevelCustomLevels(t *testing.T) {
	// A custom level function inverts the default ordering.
	a := NewMultiLevel(2, func(r Request) int { return -int(r.Class) })
	reqs := []Request{
		classReq(0, noc.GuaranteedLatency),
		classReq(1, noc.BestEffort),
	}
	w := a.Arbitrate(0, reqs)
	if reqs[w].Input != 1 {
		t.Fatalf("winner %d, want 1 under inverted levels", reqs[w].Input)
	}
}

// TestRoundRobinRadix4096 pins the top of NewRoundRobin's range: the
// pointer wraps from input 4095 back to 0, the distance from it to
// input 4095 is the largest, and one input more is refused.
func TestRoundRobinRadix4096(t *testing.T) {
	a := NewRoundRobin(4096)
	a.Granted(0, Request{Input: 4094})
	reqs := []Request{{Input: 0}, {Input: 4095}}
	if w := a.Arbitrate(0, reqs); w != 1 {
		t.Fatalf("pointer at 4095: winner %d, want 1 (input 4095)", w)
	}
	a.Granted(0, reqs[1])
	if w := a.Arbitrate(0, reqs); w != 0 {
		t.Fatalf("pointer wrapped to 0: winner %d, want 0 (input 0)", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRoundRobin(4097) did not panic")
		}
	}()
	NewRoundRobin(4097)
}
