package glbound

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	for _, good := range []Params{
		{LMax: 8, LMin: 2, NGL: 4, BufferFlits: 16},
		{LMax: 1 << 20, LMin: 1 << 20, NGL: 4096, BufferFlits: 1 << 20},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid params rejected: %v", err)
		}
	}
	bad := []Params{
		{LMax: 1, LMin: 2, NGL: 1, BufferFlits: 4},
		{LMax: 8, LMin: 0, NGL: 1, BufferFlits: 4},
		{LMax: 8, LMin: 2, NGL: 0, BufferFlits: 4},
		{LMax: 8, LMin: 2, NGL: 1, BufferFlits: 0},
		{LMax: 1<<20 + 1, LMin: 2, NGL: 1, BufferFlits: 4},
		{LMax: 8, LMin: 2, NGL: 4097, BufferFlits: 4},
		{LMax: 8, LMin: 2, NGL: 1, BufferFlits: 1<<20 + 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d accepted: %+v", i, p)
		}
	}
}

func TestMaxWaitFormula(t *testing.T) {
	// tau = lmax + NGL*(b + b/lmin).
	cases := []struct {
		p    Params
		want float64
	}{
		{Params{LMax: 8, LMin: 4, NGL: 4, BufferFlits: 16}, 8 + 4*(16+4)},
		{Params{LMax: 8, LMin: 8, NGL: 1, BufferFlits: 8}, 8 + 1*(8+1)},
		{Params{LMax: 16, LMin: 1, NGL: 8, BufferFlits: 4}, 16 + 8*(4+4)},
	}
	for _, tc := range cases {
		if got := tc.p.MaxWait(); got != tc.want {
			t.Errorf("MaxWait(%+v) = %g, want %g", tc.p, got, tc.want)
		}
	}
}

func TestMaxWaitMonotonic(t *testing.T) {
	// Property: the bound grows with contention (NGL) and buffering (b).
	f := func(lmax8, ngl8, b8 uint8) bool {
		lmax := int(lmax8%16) + 1
		ngl := int(ngl8%8) + 1
		b := int(b8%32) + 1
		base := Params{LMax: lmax, LMin: 1, NGL: ngl, BufferFlits: b}
		moreInputs := base
		moreInputs.NGL++
		moreBuffer := base
		moreBuffer.BufferFlits++
		return moreInputs.MaxWait() > base.MaxWait() && moreBuffer.MaxWait() > base.MaxWait()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBurstSizesSingleFlow(t *testing.T) {
	// One flow, bound 189 cycles, 8-flit packets: sigma = (189-8)/9 ~ 20
	// packets.
	out, err := BurstSizes(8, []float64{189})
	if err != nil {
		t.Fatal(err)
	}
	want := (189.0 - 8) / 9
	if math.Abs(out[0].MaxPackets-want) > 1e-9 {
		t.Fatalf("sigma_1 = %g, want %g", out[0].MaxPackets, want)
	}
}

func TestBurstSizesSortedAndMonotone(t *testing.T) {
	out, err := BurstSizes(8, []float64{500, 100, 300})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Latency != 100 || out[1].Latency != 300 || out[2].Latency != 500 {
		t.Fatalf("constraints not sorted: %+v", out)
	}
	for i := 1; i < len(out); i++ {
		if out[i].MaxPackets <= out[i-1].MaxPackets {
			t.Fatalf("looser constraints must allow larger bursts: %+v", out)
		}
	}
}

func TestBurstSizesSharing(t *testing.T) {
	// Splitting the same constraint across more flows shrinks each
	// flow's budget (they share the GL lane).
	one, err := BurstSizes(8, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := BurstSizes(8, []float64{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if eight[0].MaxPackets*7.9 > one[0].MaxPackets*8.1 {
		t.Fatalf("eight-way split budget %g should be ~1/8 of solo budget %g",
			eight[0].MaxPackets, one[0].MaxPackets)
	}
}

func TestBurstSizesErrors(t *testing.T) {
	if _, err := BurstSizes(0, []float64{100}); err == nil {
		t.Error("lmax 0 accepted")
	}
	if _, err := BurstSizes(8, nil); err == nil {
		t.Error("empty constraints accepted")
	}
	if _, err := BurstSizes(8, []float64{4}); err == nil {
		t.Error("constraint below lmax accepted")
	}
}

func TestDegradeTightensBound(t *testing.T) {
	p := Params{LMax: 8, LMin: 4, NGL: 4, BufferFlits: 16}
	d, err := p.Degrade(3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NGL != 1 {
		t.Fatalf("degraded NGL = %d, want 1", d.NGL)
	}
	if d.MaxWait() >= p.MaxWait() {
		t.Fatalf("bound did not tighten: %g -> %g", p.MaxWait(), d.MaxWait())
	}
	// Zero failures is the identity.
	same, err := p.Degrade(0)
	if err != nil || same != p {
		t.Fatalf("Degrade(0) = (%+v, %v), want identity", same, err)
	}
}

func TestDegradeRejectsTotalLoss(t *testing.T) {
	p := Params{LMax: 8, LMin: 4, NGL: 2, BufferFlits: 16}
	if _, err := p.Degrade(2); err == nil {
		t.Fatal("losing every GL input accepted")
	}
	if _, err := p.Degrade(-1); err == nil {
		t.Fatal("negative failure count accepted")
	}
}
