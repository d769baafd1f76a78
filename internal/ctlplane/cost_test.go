package ctlplane

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"swizzleqos/internal/ctlplane/admit"
	"swizzleqos/internal/noc"
)

// bigCeil returns ceil(Frame·l/d) in exact arithmetic.
func bigCeil(l, d uint64) *big.Int {
	num := new(big.Int).Mul(big.NewInt(Frame), new(big.Int).SetUint64(l))
	den := new(big.Int).SetUint64(d)
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q
}

// FuzzCostProducts holds the two §3.3 products, costOf's Frame·L/Vtick
// and GrantedVtick's Frame·L/granted, each rounded up, to math/big
// ceilings over every admissible length (1..2^20), any rate Check
// accepts and any granted cost 1..Frame. The seeds sit at the edges:
// L = 1 and L = 2^20, Vtick 1 (rate 1, L = 1) and the largest Vtick
// (the smallest positive rate, which saturates it at 2^64-1).
func FuzzCostProducts(f *testing.F) {
	for _, l := range []uint32{0, admit.MaxPacketLen - 1} {
		for _, rate := range []float64{1, 0.3, math.SmallestNonzeroFloat64} {
			f.Add(l, rate, uint64(0))
			f.Add(l, rate, uint64(Frame-1))
		}
	}
	f.Fuzz(func(t *testing.T, l uint32, rate float64, g uint64) {
		fr := admit.FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: rate,
			PacketLen: int(l%admit.MaxPacketLen) + 1}
		req, err := admit.Check(fr, 2, int(admit.MaxPacketLen))
		if err != nil {
			t.Skip() // a rate outside (0,1]
		}
		vt := fr.Spec().Vtick().Uint()
		if want := bigCeil(uint64(fr.PacketLen), vt); !want.IsUint64() || costOf(req) != want.Uint64() {
			t.Fatalf("costOf(L=%d, Vtick=%d) = %d, want %s", fr.PacketLen, vt, costOf(req), want)
		}
		res := Reservation{Req: fr, GrantedCost: g%Frame + 1}
		if want := bigCeil(uint64(fr.PacketLen), res.GrantedCost); !want.IsUint64() || res.GrantedVtick().Uint() != want.Uint64() {
			t.Fatalf("GrantedVtick(L=%d, granted=%d) = %d, want %s", fr.PacketLen, res.GrantedCost, res.GrantedVtick(), want)
		}
	})
}

// TestConfigBounds refuses each integer field of SimConfig one step
// outside its range, and accepts the top of every range at once. These
// are the bounds every later product and shift rests on: Radix, the
// three buffer depths, the counter widths (SigBits at most
// core.MaxSigBits), LMax (at most admit.MaxPacketLen) and GLBurst.
func TestConfigBounds(t *testing.T) {
	top := SimConfig{Radix: 4096, BEBufferFlits: 1 << 20, GLBufferFlits: 1 << 20, GBBufferFlits: 1 << 20,
		CounterBits: 32, SigBits: 16, LMax: 1 << 20, GLBurst: 1 << 20}.WithDefaults()
	if err := top.Validate(); err != nil {
		t.Fatalf("top of every range refused: %v", err)
	}
	for _, tc := range []struct {
		name string // "<field> <value>": the refusal names the field
		mut  func(*SimConfig)
	}{
		{"radix 1", func(c *SimConfig) { c.Radix = 1 }},
		{"radix 4097", func(c *SimConfig) { c.Radix = 4097 }},
		{"BE buffer 0", func(c *SimConfig) { c.BEBufferFlits = -1 }},
		{"BE buffer 2^20+1", func(c *SimConfig) { c.BEBufferFlits = 1<<20 + 1 }},
		{"GL buffer 2^20+1", func(c *SimConfig) { c.GLBufferFlits = 1<<20 + 1 }},
		{"GB buffer 2^20+1", func(c *SimConfig) { c.GBBufferFlits = 1<<20 + 1 }},
		{"counter bits 1", func(c *SimConfig) { c.CounterBits, c.SigBits = 1, 1 }},
		{"counter bits 33", func(c *SimConfig) { c.CounterBits = 33 }},
		{"sig bits 0", func(c *SimConfig) { c.SigBits = -1 }},
		{"sig bits 17", func(c *SimConfig) { c.SigBits = 17 }},
		{"sig bits 8", func(c *SimConfig) { c.CounterBits, c.SigBits = 8, 8 }},
		{"lmax 0", func(c *SimConfig) { c.LMax = -1 }},
		{"lmax 2^20+1", func(c *SimConfig) { c.LMax = 1<<20 + 1 }},
		{"GL burst 0", func(c *SimConfig) { c.GLBurst = -1 }},
		{"GL burst 2^20+1", func(c *SimConfig) { c.GLBurst = 1<<20 + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := top
			tc.mut(&c)
			field := tc.name[:strings.LastIndexByte(tc.name, ' ')]
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("Validate = %v, want a refusal naming %q", err, field)
			}
		})
	}
}

// TestGLShareBucketEdge: SimConfig refuses a GL share whose leaky
// bucket would not police, at the edge core.CheckGLBucket draws. At LMax
// 8 and GLBurst 2 a share of 2^-60 gives Vtick 2^63, whose burst reaches
// 2^64; the next float share up gives 2^63-1024 and builds a plane. A
// share so small that LMax/share clamps is refused at any burst.
func TestGLShareBucketEdge(t *testing.T) {
	base := SimConfig{Radix: 4, LMax: 8, GLBurst: 2}.WithDefaults()
	for _, tc := range []struct {
		share float64
		burst int
		ok    bool
	}{
		{0x1p-60, 2, false},
		{math.Nextafter(0x1p-60, 1), 2, true},
		{0x1p-60, 1, true},
		{5e-324, 1, false},
	} {
		c := base
		c.GLShare, c.GLBurst = tc.share, tc.burst
		err := c.Validate()
		if tc.ok != (err == nil) || err != nil && !strings.Contains(err.Error(), "GL share") {
			t.Errorf("share %g, burst %d (Vtick %d): Validate = %v, want ok %v", tc.share, tc.burst, c.glVtick(), err, tc.ok)
			continue
		}
		if _, err := New(c); tc.ok && err != nil {
			t.Errorf("share %g, burst %d: New = %v", tc.share, tc.burst, err)
		}
	}
}

// TestCheckBoundsLength: Check refuses a length above
// admit.MaxPacketLen whatever lmax it is given, so Req.PacketLen's
// uint32 is exact, and refuses a population above 2^16.
func TestCheckBoundsLength(t *testing.T) {
	fr := admit.FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLen: int(admit.MaxPacketLen)}
	req, err := admit.Check(fr, 2, math.MaxInt32)
	if err != nil || req.PacketLen() != admit.MaxPacketLen {
		t.Fatalf("Check(L=2^20) = %d, %v; want it accepted", req.PacketLen(), err)
	}
	for _, bad := range []admit.FlowReq{
		{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLen: int(admit.MaxPacketLen) + 1},
		{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLen: 0},
		{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLen: 1, Users: 1<<16 + 1},
	} {
		if _, err := admit.Check(bad, 2, math.MaxInt32); err == nil {
			t.Errorf("Check(%+v) accepted", bad)
		}
	}
}
