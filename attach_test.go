package swizzleqos_test

import (
	"math"
	"strings"
	"testing"

	"swizzleqos"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// delivery is one delivered packet as a value, comparable across runs.
type delivery struct {
	id, src, dst     int
	class            noc.Class
	created, granted noc.Cycle
	delivered        noc.Cycle
}

func record(log *[]delivery) func(*noc.Packet) {
	return func(p *noc.Packet) {
		*log = append(*log, delivery{int(p.ID), p.Src, p.Dst, p.Class, p.CreatedAt, p.GrantedAt, p.DeliveredAt})
	}
}

// TestAttachMatchesNew holds the library to the shared build path: for
// every injection kind, swizzleqos.New and traffic.Attach onto a bare
// crossbar whose SSVC arbiters come from core.FromFlows deliver the same
// packets at the same cycles, once the library's one-past seed offset is
// applied to the bare side.
func TestAttachMatchesNew(t *testing.T) {
	kinds := []struct {
		name string
		inj  func(i int) swizzleqos.Injection
	}{
		{"bernoulli", func(i int) swizzleqos.Injection { return swizzleqos.Inject.Bernoulli(0.3, uint64(10+i)) }},
		{"bursty", func(i int) swizzleqos.Injection { return swizzleqos.Inject.Bursty(0.3, 3, uint64(20+i)) }},
		{"periodic", func(i int) swizzleqos.Injection {
			return swizzleqos.Inject.Periodic(swizzleqos.CycleOf(30), swizzleqos.CycleOf(uint64(i)))
		}},
		{"backlogged", func(int) swizzleqos.Injection { return swizzleqos.Inject.Backlogged(4) }},
		{"trace", func(i int) swizzleqos.Injection {
			return swizzleqos.Inject.Trace(1, 2, 3, swizzleqos.CycleOf(uint64(100+i)))
		}},
	}
	rates := []float64{0.4, 0.2, 0.1, 0.1}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			var ws []swizzleqos.Workload
			for i, r := range rates {
				ws = append(ws, gbWorkload(i, 3, r, k.inj(i)), gbWorkload(i+4, i%2, r/2, k.inj(i+4)))
			}
			net, err := swizzleqos.New(swizzleqos.DefaultConfig(8), ws...)
			if err != nil {
				t.Fatal(err)
			}
			var viaNew, viaAttach []delivery
			net.OnDeliver(record(&viaNew))
			net.Run(4000)

			cfg := net.Config()
			specs := make([]noc.FlowSpec, len(ws))
			shifted := make([]traffic.Workload, len(ws))
			for i, w := range ws {
				specs[i] = w.Spec
				shifted[i] = w
				shifted[i].Inject.Seed++
			}
			sw, err := switchsim.New(switchsim.Config{
				Radix:         cfg.Radix,
				BEBufferFlits: cfg.BEBufferFlits,
				GLBufferFlits: cfg.GLBufferFlits,
				GBBufferFlits: cfg.GBBufferFlits,
			}, core.FromFlows(core.Config{
				Radix: cfg.Radix, CounterBits: cfg.CounterBits, SigBits: cfg.SigBits, Policy: cfg.Policy,
				EnableGL: true,
				GLVtick:  noc.FlowSpec{Rate: cfg.GL.Rate, PacketLength: cfg.GL.PacketLength}.Vtick(),
				GLBurst:  cfg.GL.Burst,
			}, specs))
			if err != nil {
				t.Fatal(err)
			}
			var seq traffic.Sequence
			if err := traffic.Attach(sw, &seq, shifted...); err != nil {
				t.Fatal(err)
			}
			sw.OnDeliver(record(&viaAttach))
			sw.Run(4000)

			if len(viaNew) == 0 {
				t.Fatal("nothing delivered")
			}
			if len(viaNew) != len(viaAttach) {
				t.Fatalf("New delivered %d packets, Attach %d", len(viaNew), len(viaAttach))
			}
			for i := range viaNew {
				if viaNew[i] != viaAttach[i] {
					t.Fatalf("delivery %d: New %+v, Attach %+v", i, viaNew[i], viaAttach[i])
				}
			}
		})
	}
}

// TestAttachNamesTheFlow: an invalid rate is an error naming the flow on
// both paths, with nothing attached behind it.
func TestAttachNamesTheFlow(t *testing.T) {
	w := gbWorkload(0, 1, 0.2, swizzleqos.Inject.Bernoulli(math.NaN(), 1))
	if _, err := swizzleqos.New(swizzleqos.DefaultConfig(8), w); err == nil || !strings.Contains(err.Error(), "flow 0->1") {
		t.Errorf("New: error %v does not name flow 0->1", err)
	}
	sw, err := switchsim.New(switchsim.Config{Radix: 8, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16},
		core.FromFlows(core.Config{Radix: 8, CounterBits: 12, SigBits: 4}, []noc.FlowSpec{w.Spec}))
	if err != nil {
		t.Fatal(err)
	}
	var seq traffic.Sequence
	if err := traffic.Attach(sw, &seq, w); err == nil || !strings.Contains(err.Error(), "flow 0->1") {
		t.Errorf("Attach: error %v does not name flow 0->1", err)
	}
	if n := sw.Flows(); n != 0 {
		t.Errorf("%d flows attached behind the error", n)
	}
}
