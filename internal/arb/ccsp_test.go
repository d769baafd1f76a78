package arb

import (
	"testing"

	"swizzleqos/internal/noc"
)

func ccspReq(input, length int) Request {
	return Request{Input: input, Class: noc.GuaranteedBandwidth,
		Packet: &noc.Packet{Src: input, Class: noc.GuaranteedBandwidth, Length: length}}
}

func TestCCSPStaticPriorityAmongEligible(t *testing.T) {
	// Input 1 has the higher static priority; both start fully
	// provisioned.
	a := NewCCSP([]float64{0.1, 0.1}, []float64{8, 8}, []int{1, 0}, false)
	reqs := []Request{ccspReq(0, 8), ccspReq(1, 8)}
	if w := a.Arbitrate(0, reqs); reqs[w].Input != 1 {
		t.Fatalf("winner %d, want static-priority input 1", reqs[w].Input)
	}
}

func TestCCSPIneligibleWithoutCredit(t *testing.T) {
	a := NewCCSP([]float64{0.01, 0.5}, []float64{8, 8}, []int{0, 1}, false)
	reqs := []Request{ccspReq(0, 8), ccspReq(1, 8)}
	// Drain input 0's credit.
	a.Granted(0, reqs[0])
	if a.Credit(0) != 0 {
		t.Fatalf("credit = %g, want 0", a.Credit(0))
	}
	// Despite its higher priority, input 0 is ineligible; input 1 wins.
	if w := a.Arbitrate(1, reqs); reqs[w].Input != 1 {
		t.Fatalf("winner %d, want eligible input 1", reqs[w].Input)
	}
	// Credits re-accrue with time: 0.01/cycle needs 800 cycles for 8
	// flits.
	a.Tick(900)
	if w := a.Arbitrate(901, reqs); reqs[w].Input != 0 {
		t.Fatalf("after re-accrual, winner %d, want input 0", reqs[w].Input)
	}
}

func TestCCSPNonWorkConservingIdles(t *testing.T) {
	a := NewCCSP([]float64{0.01}, []float64{4}, []int{0}, false)
	reqs := []Request{ccspReq(0, 4)}
	a.Granted(0, reqs[0]) // drain
	if w := a.Arbitrate(1, reqs); w != -1 {
		t.Fatalf("non-work-conserving CCSP granted an ineligible input")
	}
}

func TestCCSPWorkConservingSlack(t *testing.T) {
	a := NewCCSP([]float64{0.01}, []float64{4}, []int{0}, true)
	reqs := []Request{ccspReq(0, 4)}
	a.Granted(0, reqs[0])
	w := a.Arbitrate(1, reqs)
	if w != 0 {
		t.Fatalf("work-conserving CCSP wasted a slack cycle")
	}
	a.Granted(1, reqs[0])
	if a.Credit(0) >= 0 {
		t.Fatalf("slack service must drive credit negative, got %g", a.Credit(0))
	}
}

func TestCCSPCreditCap(t *testing.T) {
	a := NewCCSP([]float64{0.5}, []float64{8}, []int{0}, false)
	a.Tick(1000)
	if a.Credit(0) != 8 {
		t.Fatalf("credit = %g, want capped at 8", a.Credit(0))
	}
}

func TestCCSPDecouplesLatencyFromRate(t *testing.T) {
	// The §5 claim: a low-rate, high-priority requester is served ahead
	// of a saturated high-rate one whenever it is eligible.
	a := NewCCSP([]float64{0.02, 0.6}, []float64{8, 16}, []int{0, 1}, true)
	lowServedImmediately := 0
	trials := 0
	now := noc.Cycle(0)
	for step := 0; step < 200; step++ {
		// The high-rate input always requests; the low-rate one
		// requests every 50th step (idle otherwise, re-earning credit).
		reqs := []Request{ccspReq(1, 8)}
		lowRequesting := step%50 == 0
		if lowRequesting {
			reqs = append(reqs, ccspReq(0, 8))
			trials++
		}
		w := a.Arbitrate(now, reqs)
		if lowRequesting && reqs[w].Input == 0 {
			lowServedImmediately++
		}
		a.Granted(now, reqs[w])
		now += 9
		a.Tick(now)
	}
	if lowServedImmediately < trials*9/10 {
		t.Fatalf("low-rate high-priority input served immediately only %d/%d times",
			lowServedImmediately, trials)
	}
}

func TestCCSPPanicsOnBadProvisioning(t *testing.T) {
	for _, f := range []func(){
		func() { NewCCSP(nil, nil, nil, false) },
		func() { NewCCSP([]float64{0.1}, []float64{8, 8}, []int{0}, false) },
		func() { NewCCSP([]float64{1.5}, []float64{8}, []int{0}, false) },
		func() { NewCCSP([]float64{0.1}, []float64{0.5}, []int{0}, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTDMServesOnlySlotOwner(t *testing.T) {
	a := NewTDM(UniformTDMTable(2, 3)) // slots: 0,0,0,1,1,1 repeating
	reqs := []Request{ccspReq(1, 2)}
	// Cycles 0-2 belong to input 0: input 1's request is wasted.
	for now := noc.Cycle(0); now < 3; now++ {
		if w := a.Arbitrate(now, reqs); w != -1 {
			t.Fatalf("cycle %d: slot owner 0 absent but input 1 served", now)
		}
	}
	// Cycles 3-5 belong to input 1.
	if w := a.Arbitrate(3, reqs); w != 0 {
		t.Fatal("slot owner not served in its slot")
	}
}

func TestTDMBandwidthFollowsSlotCounts(t *testing.T) {
	// Input 0 owns two slots per frame, input 1 one: 2:1 shares when
	// both are backlogged.
	a := NewTDM([]int{0, 0, 1})
	wins := [2]int{}
	reqs := []Request{ccspReq(0, 1), ccspReq(1, 1)}
	for now := noc.Cycle(0); now < 300; now++ {
		if w := a.Arbitrate(now, reqs); w >= 0 {
			wins[reqs[w].Input]++
			a.Granted(now, reqs[w])
		}
	}
	if wins[0] != 200 || wins[1] != 100 {
		t.Fatalf("wins = %v, want [200 100]", wins)
	}
}

func TestTDMPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewTDM(nil) },
		func() { NewTDM([]int{-1}) },
		func() { UniformTDMTable(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Credit returns input i's current credit, for tests.
func (a *CCSP) Credit(i int) float64 { return a.credit[i] }
