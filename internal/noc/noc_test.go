package noc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	cases := []struct {
		c    Class
		want string
	}{
		{BestEffort, "BE"},
		{GuaranteedBandwidth, "GB"},
		{GuaranteedLatency, "GL"},
		{Class(9), "Class(9)"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Class(%d).String() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestClassValid(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if !c.Valid() {
			t.Errorf("class %v should be valid", c)
		}
	}
	if Class(NumClasses).Valid() {
		t.Errorf("class %d should be invalid", NumClasses)
	}
}

func TestClassPriorityOrdering(t *testing.T) {
	// The paper's priority order: BE < GB < GL. The simulator relies on
	// the numeric ordering of the constants.
	if !(BestEffort < GuaranteedBandwidth && GuaranteedBandwidth < GuaranteedLatency) {
		t.Fatal("class constants must be ordered BE < GB < GL")
	}
}

func TestFlowSpecValidate(t *testing.T) {
	valid := FlowSpec{Src: 0, Dst: 7, Class: GuaranteedBandwidth, Rate: 0.4, PacketLength: 8}
	if err := valid.Validate(8); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*FlowSpec)
	}{
		{"src negative", func(f *FlowSpec) { f.Src = -1 }},
		{"src too large", func(f *FlowSpec) { f.Src = 8 }},
		{"dst negative", func(f *FlowSpec) { f.Dst = -1 }},
		{"dst too large", func(f *FlowSpec) { f.Dst = 8 }},
		{"bad class", func(f *FlowSpec) { f.Class = Class(5) }},
		{"zero length", func(f *FlowSpec) { f.PacketLength = 0 }},
		{"gb zero rate", func(f *FlowSpec) { f.Rate = 0 }},
		{"gb negative rate", func(f *FlowSpec) { f.Rate = -0.1 }},
		{"gb rate above one", func(f *FlowSpec) { f.Rate = 1.5 }},
		{"be with rate", func(f *FlowSpec) { f.Class = BestEffort; f.Rate = 0.2 }},
	}
	for _, tc := range cases {
		f := valid
		tc.mut(&f)
		if err := f.Validate(8); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
}

func TestFlowSpecValidateBestEffort(t *testing.T) {
	f := FlowSpec{Src: 1, Dst: 2, Class: BestEffort, PacketLength: 4}
	if err := f.Validate(4); err != nil {
		t.Fatalf("best-effort spec rejected: %v", err)
	}
}

func TestVtick(t *testing.T) {
	cases := []struct {
		rate float64
		len  int
		want VTime
	}{
		// Figure 4's reserved fractions with 8-flit packets.
		{0.40, 8, 20},
		{0.20, 8, 40},
		{0.10, 8, 80},
		{0.05, 8, 160},
		// Full rate: one packet per packet-time.
		{1.0, 8, 8},
		// Single-flit packets at full rate.
		{1.0, 1, 1},
		// Rounding: 8/0.3 = 26.67 -> 27.
		{0.3, 8, 27},
		// Unreserved.
		{0, 8, 0},
		// 8/1e-300 does not fit 64 bits: saturate, on every architecture
		// (a bare conversion gives 2^63 on amd64 and 0 on 386).
		{1e-300, 8, VTimeOf(math.MaxUint64)},
	}
	for _, tc := range cases {
		f := FlowSpec{Rate: tc.rate, PacketLength: tc.len}
		if got := f.Vtick(); got != tc.want {
			t.Errorf("Vtick(rate=%g, len=%d) = %d, want %d", tc.rate, tc.len, got, tc.want)
		}
	}
}

func TestVtickNeverZeroForReservedFlows(t *testing.T) {
	// Property: any flow with a positive rate gets a positive Vtick, so
	// its virtual clock always advances on transmission.
	f := func(rate float64, length uint8) bool {
		r := rate
		if r < 0 {
			r = -r
		}
		r = 0.001 + r/(r+1) // squeeze into (0.001, 1.001)
		if r > 1 {
			r = 1
		}
		l := int(length%64) + 1
		spec := FlowSpec{Rate: r, PacketLength: l}
		return spec.Vtick() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketLatencies(t *testing.T) {
	p := &Packet{CreatedAt: 10, EnqueuedAt: 14, GrantedAt: 30, DeliveredAt: 39}
	if got := p.TotalLatency(); got != 29 {
		t.Errorf("TotalLatency = %d, want 29", got)
	}
	if got := p.NetworkLatency(); got != 25 {
		t.Errorf("NetworkLatency = %d, want 25", got)
	}
	if got := p.WaitingTime(); got != 16 {
		t.Errorf("WaitingTime = %d, want 16", got)
	}
}

// TestCheckedArithmetic pins the edges of the wrap-free helpers.
func TestCheckedArithmetic(t *testing.T) {
	const max = math.MaxUint64
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"SatMul fits", SatMul(uint64(1)<<31, 1<<32), 1 << 63},
		{"SatMul one over", SatMul(uint64(2), 1<<63), max},
		{"SatMul zero", SatMul(uint64(0), max), 0},
		{"SatMul top", SatMul(uint64(max), max), max},
		{"Mul32 top", Mul32(math.MaxUint32, math.MaxUint32), max - 2*math.MaxUint32},
		{"Mul32 frame", Mul32(1<<20, 1<<20), 1 << 40},
		{"CeilDiv exact", CeilDiv(12, 4), 3},
		{"CeilDiv up", CeilDiv(13, 4), 4},
		{"CeilDiv top by 1", CeilDiv(max, 1), max},
		{"CeilDiv top by 2", CeilDiv(max, 2), 1 << 63},
		{"CeilDiv top by top", CeilDiv(max, max), 1},
		{"Pow2 0", Pow2(0), 1},
		{"Pow2 63", Pow2(63), 1 << 63},
		{"Pow2 64 saturates", Pow2(64), max},
		{"Pow2 255 saturates", Pow2(255), max},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Errorf("got %d, want %d", c.got, c.want)
			}
		})
	}
	if got := SatMul(VTimeOf(2), VTimeOf(1<<63)); got != VTime(max) {
		t.Errorf("SatMul on VTime = %d, want the maximum", got)
	}
}
