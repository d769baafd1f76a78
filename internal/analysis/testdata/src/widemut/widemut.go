// Package widemut is a mutation meta-fixture: a copy of the §3.3
// admission cost path — admit's packet-length bound, Check, the checked
// length and ctlplane's costOf — under one mutation: the length bound
// is widened from 2^20 to 2^62 together with its type, so the checked
// length is handed out as a uint64. noc.Mul32 takes 32-bit operands, so
// costOf does not compile; had it compiled, Frame·L would need 83 bits.
// The meta-test asserts the type error at the marked line.
package widemut

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// Frame is ctlplane.Frame.
const Frame = 1 << 20

// MaxPacketLen is admit.MaxPacketLen, mutated.
const MaxPacketLen uint64 = 1 << 62

// FlowReq mirrors admit.FlowReq.
type FlowReq struct {
	Src       int
	Dst       int
	Class     noc.Class
	Rate      float64
	PacketLen int
}

// Spec returns the noc flow contract for the request.
func (r FlowReq) Spec() noc.FlowSpec {
	return noc.FlowSpec{Src: r.Src, Dst: r.Dst, Class: r.Class, Rate: r.Rate, PacketLength: r.PacketLen}
}

// Req mirrors admit.Req.
type Req struct{ flow FlowReq }

// Flow returns the checked request.
func (r Req) Flow() FlowReq { return r.flow }

// PacketLen returns the checked packet length.
func (r Req) PacketLen() uint64 { return uint64(r.flow.PacketLen) }

// Check keeps admit.Check's length bound.
func Check(f FlowReq, lmax int) (Req, error) {
	if f.PacketLen < 1 || f.PacketLen > lmax || uint64(f.PacketLen) > MaxPacketLen {
		return Req{}, fmt.Errorf("packet length %d outside [1,%d]", f.PacketLen, lmax)
	}
	return Req{flow: f}, nil
}

func costOf(req Req) uint64 {
	vt := req.Flow().Spec().Vtick().Uint()
	if vt == 0 {
		return 0
	}
	return noc.CeilDiv(noc.Mul32(Frame, req.PacketLen()), vt) // want:typecheck
}
