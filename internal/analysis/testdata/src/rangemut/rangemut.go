// Package rangemut is the valuerange mutation meta-fixture: a copy of
// ctlplane's costOf, the §3.3 Frame-scaled admission cost, under one
// mutation: the declared PacketLen bound is widened from 2^20 to 2^62.
// Under the real contract the product fits in 41 bits and the rounded-up
// quotient cannot reach the top of uint64; under the mutated one the
// product needs 83 bits and, once it may wrap, so may the round-up. The
// meta-test asserts the analyzer reports both, proving the check fails
// closed rather than merely passing on clean code.
package rangemut

import "swizzleqos/internal/noc"

// Frame is ctlplane.Frame.
const Frame = 1 << 20

// FlowReq mirrors ctlplane.FlowReq.
type FlowReq struct {
	Src       int
	Dst       int
	Class     noc.Class
	Rate      float64
	PacketLen int //ssvc:range PacketLen 1..4611686018427387904
}

// Spec returns the noc flow contract for the request.
func (r FlowReq) Spec() noc.FlowSpec {
	return noc.FlowSpec{Src: r.Src, Dst: r.Dst, Class: r.Class, Rate: r.Rate, PacketLength: r.PacketLen}
}

func costOf(req FlowReq) uint64 {
	vt := req.Spec().Vtick().Uint()
	if vt == 0 {
		return 0
	}
	num := Frame * uint64(req.PacketLen) // want:valuerange
	cost := num / vt
	if num%vt != 0 {
		cost++ // want:valuerange
	}
	return cost
}
