package arb

import (
	"testing"

	"swizzleqos/internal/noc"
)

// TestTicksAreNoOps pins the contract that the stateless arbiters ignore
// the per-cycle clock: behaviour before and after Tick is identical.
func TestTicksAreNoOps(t *testing.T) {
	reqs := []Request{req(0), req(1)}
	arbs := []Arbiter{
		NewLRG(4),
		NewRoundRobin(4),
		NewMultiLevel(4, nil),
		NewWRR([]int{1, 1, 1, 1}, true),
		NewDWRR([]int{4, 4, 4, 4}),
		NewOrigVC(4, []noc.VTime{10, 10, 10, 10}),
		NewPVC(4, []noc.VTime{10, 10, 10, 10}, 5),
	}
	for _, a := range arbs {
		before := a.Arbitrate(0, reqs)
		a.Tick(0)
		a.Tick(5)
		after := a.Arbitrate(6, reqs)
		if before != after {
			t.Errorf("%T: Tick changed the decision %d -> %d", a, before, after)
		}
	}
}

func TestAccessors(t *testing.T) {
	l := NewLRG(4)
	if l.State().Size() != 4 {
		t.Error("LRG.State size")
	}
	o := NewOrigVC(2, []noc.VTime{5, 7})
	p := gbPacket(0, 4)
	o.PacketArrived(3, p)
	if o.Aux(0) != 8 {
		t.Errorf("OrigVC.Aux = %d, want 8", o.Aux(0))
	}
	// PVC's Granted only rotates LRG state.
	v := NewPVC(2, []noc.VTime{5, 7}, 1)
	v.Granted(0, Request{Input: 0, Class: 0, Packet: gbPacket(0, 4)})
	if v.state.Rank(0) != 1 {
		t.Error("PVC.Granted did not rotate LRG")
	}
}
