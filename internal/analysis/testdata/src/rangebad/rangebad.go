// Package rangebad is a lint fixture for the valuerange analyzer:
// every arithmetic site the interval engine must flag carries a
// trailing want-marker, and every shape it must prove safe — guarded
// products, refined narrowings, masked shifts, barrier-clamped float
// crossings — is marker-free. The package never builds into the
// module (testdata is skipped); it only has to type-check under the
// analyzer's loader.
package rangebad

// Cfg declares the input contracts the fixture arithmetic is checked
// against, one field per shape the grammar supports.
type Cfg struct {
	//ssvc:range Frame 1..1048576
	Frame uint64
	//ssvc:range Len 1..1048576
	Len uint64
	//ssvc:range Big 1..4611686018427387904
	Big uint64
	//ssvc:range Small 0..255
	Small uint32
	//ssvc:range Byte 0..255
	Byte uint8
	//ssvc:range Ports 2..4096
	Ports int
}

// Product multiplies two declared ranges whose exact product exceeds
// uint64: 2^62 * 2^20 needs 82 bits.
func Product(c Cfg) uint64 {
	return c.Big * c.Len // want:valuerange
}

// Scaled is the same shape with ranges that provably fit: 2^20 * 2^20
// needs only 40 bits.
func Scaled(c Cfg) uint64 {
	return c.Frame * c.Len
}

// Guarded narrows the declared range on the fall-through edge before
// multiplying; the refined product fits.
func Guarded(c Cfg) uint64 {
	if c.Big > 1<<20 {
		return 0
	}
	return c.Big * c.Len
}

// Narrow converts a declared range that cannot fit the destination.
func Narrow(c Cfg) uint32 {
	return uint32(c.Big) // want:valuerange
}

// NarrowOK converts a declared range that provably fits.
func NarrowOK(c Cfg) uint8 {
	return uint8(c.Small)
}

// NarrowGuarded relies on comparison-edge refinement to shrink the
// declared range into the destination type.
func NarrowGuarded(c Cfg) uint8 {
	if c.Len > 200 {
		return 0
	}
	return uint8(c.Len)
}

// Shifted masks the count the way the bitplane kernels do; the shifted
// interval tops out at 1<<63, inside uint64.
func Shifted(c Cfg) uint64 {
	return uint64(1) << (uint(c.Ports) & 63)
}

// ShiftWide shifts by an unmasked declared count of up to 4096 bits.
func ShiftWide(c Cfg) uint64 {
	return uint64(1) << uint(c.Ports) // want:valuerange
}

// FromFloat converts a float outside any barrier; out-of-range values
// convert platform-dependently.
func FromFloat(x float64) uint64 {
	return uint64(x) // want:valuerange
}

// Clamp is the sanctioned float crossing: the conversion lives inside
// a //ssvc:barrier helper that pins the value first.
//
//ssvc:barrier
func Clamp(x float64, hi uint64) uint64 {
	if !(x > 0) {
		return 0
	}
	if x >= float64(hi) {
		return hi
	}
	return uint64(x)
}

// Make writes a literal provably outside the field's declared range
// (Frame starts at 1).
func Make() Cfg {
	return Cfg{Frame: 0, Len: 1} // want:valuerange
}

// Store assigns a value provably outside the declared range (Small
// tops out at 255).
func Store(c *Cfg) {
	c.Small = 4096 // want:valuerange
}

// StoreOK assigns inside the declared range.
func StoreOK(c *Cfg) {
	c.Frame = 1024
}

// Accum grows an accumulator in a loop; widening drives it to the
// type maximum, so the next add may wrap.
func Accum(c Cfg, n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc += c.Len // want:valuerange
	}
	return acc
}

// Bump increments a declared range pinned at the top of its 8-bit
// type: 255+1 wraps.
func Bump(c Cfg) uint8 {
	s := c.Byte
	s++ // want:valuerange
	return s
}

// frame is ctlplane.Frame.
const frame = 1 << 20

// FlowReq carries ctlplane.FlowReq's PacketLen contract.
type FlowReq struct {
	Rate float64
	//ssvc:range PacketLen 1..1048576
	PacketLen int
}

// CostOf is ctlplane's costOf under the real contract, with the vtick
// clamped here instead of in noc: the 41-bit product fits, and the
// quotient keeps the product's range, so the round-up cannot wrap.
func CostOf(req FlowReq) uint64 {
	vt := Clamp(float64(req.PacketLen)/req.Rate, 1<<40)
	if vt == 0 {
		return 0
	}
	num := frame * uint64(req.PacketLen)
	cost := num / vt
	if num%vt != 0 {
		cost++
	}
	return cost
}
