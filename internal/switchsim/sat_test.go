package switchsim

import (
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/heaptest"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// satSwitch is the saturated radix-64 crossbar of bench's xbar64_sat
// workload (bench/sim.go, satSpecs and buildXbarSat), warm: 56 inputs
// each carry 8 backlogged 4-flit GB flows, one to each of 8 hot
// outputs, with the Figure 4 reservation mix rotated per input and
// scaled so an output's reservations sum to 0.70; the other 8 inputs
// carry one backlogged 2-flit BE flow each, to 2 outputs the GB flows
// leave alone; every input carries one periodic GL flow. Every output
// runs a 12/4-bit SSVC with the GL lane on. About six inputs wait at
// each hot output's arbitration, where the permutation of
// BenchmarkSwitchCycleRecycled offers one.
func satSwitch(tb testing.TB) *Switch {
	const (
		radix      = 64
		hotOutputs = 8
		gbInputs   = 56
		beOutputs  = 2
	)
	rng := traffic.NewRNG(1)
	perm := func() []int {
		p := make([]int, radix)
		for i := range p {
			p[i] = i
		}
		for i := radix - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			p[i], p[j] = p[j], p[i]
		}
		return p
	}
	outs := perm()
	hot, beOut := outs[:hotOutputs], outs[hotOutputs:hotOutputs+beOutputs]
	ins, glDst := perm(), perm()
	shares := [8]float64{0.40, 0.20, 0.10, 0.10, 0.05, 0.05, 0.05, 0.05}
	var gb, be, gl []noc.FlowSpec
	var glOffset []noc.Cycle
	for n, i := range ins {
		if n < gbInputs {
			for k, o := range hot {
				gb = append(gb, noc.FlowSpec{Src: i, Dst: o, Class: noc.GuaranteedBandwidth,
					Rate: 0.10 * shares[(n+k)%8], PacketLength: 4})
			}
		} else {
			be = append(be, noc.FlowSpec{Src: i, Dst: beOut[n%beOutputs], Class: noc.BestEffort, PacketLength: 2})
		}
		gl = append(gl, noc.FlowSpec{Src: i, Dst: glDst[i], Class: noc.GuaranteedLatency,
			Rate: 0.01, PacketLength: 2})
		glOffset = append(glOffset, noc.CycleOf(uint64(rng.Intn(1024))))
	}

	vt := make([][]core.VTime, radix)
	for o := range vt {
		vt[o] = make([]core.VTime, radix)
	}
	for _, s := range gb {
		vt[s.Dst][s.Src] = s.Vtick()
	}
	sw, err := New(Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
		func(o int) arb.Arbiter {
			return core.NewSSVC(core.Config{
				Radix: radix, CounterBits: 12, SigBits: 4, Policy: core.SubtractRealTime,
				Vticks:   vt[o],
				EnableGL: true,
				GLVtick:  noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick(),
				GLBurst:  2,
			})
		})
	if err != nil {
		tb.Fatal(err)
	}
	seq := new(traffic.Sequence)
	add := func(s noc.FlowSpec, gen traffic.Generator) {
		if err := sw.AddFlow(traffic.Flow{Spec: s, Gen: gen}); err != nil {
			tb.Fatal(err)
		}
	}
	for _, s := range append(gb, be...) {
		add(s, traffic.NewBacklogged(seq, s, 4))
	}
	for i, s := range gl {
		add(s, traffic.NewPeriodic(seq, s, 1024, glOffset[i]))
	}
	sw.OnRelease(seq.Recycle)
	sw.Run(heaptest.Cycles)
	return sw
}

// BenchmarkSwitchCycleSat measures the saturated shape's cycle.
func BenchmarkSwitchCycleSat(b *testing.B) {
	b.Run("radix64", func(b *testing.B) {
		sw := satSwitch(b)
		b.ReportAllocs()
		b.ResetTimer()
		sw.Run(noc.Cycle(b.N))
		b.ReportMetric(float64(sw.Delivered)/float64(sw.Now()), "pkts/cycle")
	})
}
