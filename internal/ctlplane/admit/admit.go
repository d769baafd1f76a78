// Package admit is the control plane's trust boundary as a type. A
// FlowReq is what a client, a script or a journal says it wants; a Req
// is a FlowReq that passed Check against the switch geometry. The
// admission arithmetic (ctlplane's Frame-unit cost and the Eq 1-3
// schedulability check) takes only a Req, and only Check can build one
// with content, so the compiler proves at every build that protocol
// input reaches that arithmetic through validation.
package admit

import (
	"fmt"

	"swizzleqos/internal/noc"
)

// MaxPacketLen is the longest packet, in flits, any switch admits:
// TableConfig's LMax is at most this, and Check refuses a longer
// request whatever lmax it is given. It is a uint32, so the bound
// itself cannot be widened past 32 bits without a compile error, and
// Req.PacketLen hands the checked length out in the type that keeps
// the §3.3 cost product Frame·L inside 64 bits (noc.Mul32).
const MaxPacketLen uint32 = 1 << 20

// maxUsers bounds a closed-loop source's population: each user is a
// slot the generator allocates up front.
const maxUsers = 1 << 16

// FlowReq is the client-visible description of a requested reservation.
type FlowReq struct {
	Src       int       `json:"src"`
	Dst       int       `json:"dst"`
	Class     noc.Class `json:"class"`
	Rate      float64   `json:"rate"`
	PacketLen int       `json:"len"`

	// Latency is the GL latency constraint L_n in cycles (Eq. 1-3);
	// Burst is the requested GL burst sigma in packets. GL only.
	Latency noc.Cycle `json:"latency,omitempty"`
	Burst   int       `json:"burst,omitempty"`

	// Users > 0 attaches a closed-loop request/response source with that
	// population (traffic.ClosedLoop); 0 attaches an open-loop source.
	Users int `json:"users,omitempty"`
	// Load is the open-loop offered load in flits/cycle; 0 means offer
	// exactly the reserved rate.
	Load float64 `json:"load,omitempty"`
}

// Spec returns the noc flow contract for the requested reservation.
func (r FlowReq) Spec() noc.FlowSpec {
	return noc.FlowSpec{Src: r.Src, Dst: r.Dst, Class: r.Class, Rate: r.Rate, PacketLength: r.PacketLen}
}

// Req is a request Check accepted. Its zero value, the only one code
// outside this package can build, is an empty request: rate 0 and
// packet length 0, which costs nothing and which the Eq 1-3 parameters
// refuse.
type Req struct {
	flow FlowReq
}

// Flow returns the checked request.
func (r Req) Flow() FlowReq { return r.flow }

// PacketLen returns the checked packet length, which Check bounds to
// [1, MaxPacketLen] (0 for the zero Req), so the conversion is exact.
func (r Req) PacketLen() uint32 { return uint32(r.flow.PacketLen) }

// Check validates a request against a switch of the given radix whose
// longest admissible packet is lmax flits (never more than
// MaxPacketLen), and returns it as a Req.
func Check(f FlowReq, radix, lmax int) (Req, error) {
	lmax = min(lmax, int(MaxPacketLen))
	if f.Src < 0 || f.Src >= radix || f.Dst < 0 || f.Dst >= radix {
		return Req{}, fmt.Errorf("ports %d->%d outside radix %d", f.Src, f.Dst, radix)
	}
	if f.Class != noc.GuaranteedBandwidth && f.Class != noc.GuaranteedLatency {
		return Req{}, fmt.Errorf("class %v is not reservable; only GB and GL pass admission", f.Class)
	}
	if f.PacketLen < 1 || f.PacketLen > lmax {
		return Req{}, fmt.Errorf("packet length %d outside [1,%d]", f.PacketLen, lmax)
	}
	// Float range checks use the accepting form: NaN fails every ordered
	// comparison, so a NaN (reachable via the line protocol's ParseFloat)
	// is rejected here instead of reaching the fixed-point budget math.
	if !(f.Rate > 0 && f.Rate <= 1) {
		return Req{}, fmt.Errorf("rate %g outside (0,1]", f.Rate)
	}
	if !(f.Load >= 0 && f.Load <= 1) || f.Users < 0 {
		return Req{}, fmt.Errorf("load %g must be in [0,1] and users %d non-negative", f.Load, f.Users)
	}
	if f.Users > maxUsers {
		return Req{}, fmt.Errorf("users %d above %d", f.Users, maxUsers)
	}
	if f.Class == noc.GuaranteedLatency {
		if f.Latency == 0 || f.Burst < 1 {
			return Req{}, fmt.Errorf("GL requests need latency=<cycles> and burst>=1")
		}
	} else if f.Latency != 0 || f.Burst != 0 {
		return Req{}, fmt.Errorf("latency/burst are GL-only options")
	}
	return Req{flow: f}, nil
}
