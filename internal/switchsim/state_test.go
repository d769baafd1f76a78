package switchsim

import (
	"bytes"
	"strings"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// stateSwitch is a radix-8 SSVC crossbar under GB Bernoulli load on two
// queues per input, periodic GL messages and a closed-loop flow, with
// its generators and packet sequence at hand, as their owner has them.
type stateSwitch struct {
	sw    *Switch
	seq   *traffic.Sequence
	flows []traffic.Flow
}

func newStateSwitch(t *testing.T, cfg Config) *stateSwitch {
	t.Helper()
	const radix = 8
	cfg.Radix, cfg.BEBufferFlits, cfg.GLBufferFlits, cfg.GBBufferFlits = radix, 16, 16, 16
	vticks := make([]core.VTime, radix)
	for i := range vticks {
		vticks[i] = 24
	}
	sw, err := New(cfg, func(int) arb.Arbiter {
		return core.NewSSVC(core.Config{Radix: radix, CounterBits: 10, SigBits: 3, Policy: core.Halve,
			Vticks: vticks, EnableGL: true, GLVtick: 80, GLBurst: 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &stateSwitch{sw: sw, seq: new(traffic.Sequence)}
	sw.OnRelease(s.seq.Recycle)
	add := func(spec noc.FlowSpec, gen traffic.Generator) {
		s.flows = append(s.flows, traffic.Flow{Spec: spec, Gen: gen})
	}
	for i := 0; i < radix; i++ {
		for k, dst := range []int{(i + 1) % radix, (i + 3) % radix} {
			spec := noc.FlowSpec{Src: i, Dst: dst, Class: noc.GuaranteedBandwidth, Rate: 0.3, PacketLength: 4 + 4*k}
			add(spec, traffic.NewBernoulli(s.seq, spec, 0.45, uint64(10*i+k+1)))
		}
		if i%3 == 0 {
			spec := noc.FlowSpec{Src: i, Dst: (i + 2) % radix, Class: noc.GuaranteedLatency, Rate: 0.05, PacketLength: 2}
			add(spec, traffic.NewPeriodic(s.seq, spec, 61, noc.CycleOf(uint64(i))))
		}
	}
	spec := noc.FlowSpec{Src: 7, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 8}
	add(spec, traffic.NewClosedLoop(s.seq, spec, traffic.ClosedLoopConfig{Users: 3}, 99))
	return s
}

// attach adds every flow through AddFlow, as a run from cycle 0 does.
func (s *stateSwitch) attach(t *testing.T) {
	t.Helper()
	for _, f := range s.flows {
		if err := s.sw.AddFlow(f); err != nil {
			t.Fatal(err)
		}
	}
}

// appendAll appends what a snapshot of the switch and its owner holds:
// the sequence, every generator, the switch.
func (s *stateSwitch) appendAll(t *testing.T) []byte {
	t.Helper()
	b := s.seq.AppendState(nil)
	for _, f := range s.flows {
		b = f.Gen.(traffic.Stateful).AppendState(b)
	}
	b, err := s.sw.AppendState(b)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (s *stateSwitch) restoreAll(r *wire.Reader) error {
	s.seq.RestoreState(r)
	for _, f := range s.flows {
		if err := f.Gen.(traffic.Stateful).RestoreState(r); err != nil {
			return err
		}
	}
	return s.sw.RestoreState(r, 8, func(i int) (traffic.Flow, error) { return s.flows[i], nil })
}

// TestRestoreContinuesTheRun snapshots a loaded switch mid-run, restores
// the bytes into a fresh one, and runs both on: the same packets leave at
// the same cycles, the counters agree, and at the end the two encode to
// the same bytes, with packet chaining and without.
func TestRestoreContinuesTheRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		chaining bool
	}{{"chaining", true}, {"plain", false}} {
		t.Run(tc.name, func(t *testing.T) {
			a := newStateSwitch(t, Config{PacketChaining: tc.chaining})
			a.attach(t)
			a.sw.Run(3000)
			blob := a.appendAll(t)

			b := newStateSwitch(t, Config{PacketChaining: tc.chaining})
			r := wire.NewReader(blob)
			if err := b.restoreAll(r); err != nil || r.Len() != 0 {
				t.Fatalf("restore: %v, %d bytes left", err, r.Len())
			}
			if again := b.appendAll(t); !bytes.Equal(again, blob) {
				t.Fatal("the restored switch encodes to other bytes")
			}
			var ta, tb []noc.Packet
			a.sw.OnDeliver(func(p *noc.Packet) { ta = append(ta, *p) })
			b.sw.OnDeliver(func(p *noc.Packet) { tb = append(tb, *p) })
			a.sw.Run(3000)
			b.sw.Run(3000)
			if len(ta) == 0 || len(ta) != len(tb) {
				t.Fatalf("%d deliveries live, %d restored", len(ta), len(tb))
			}
			for i := range ta {
				if ta[i] != tb[i] {
					t.Fatalf("delivery %d: live %+v, restored %+v", i, ta[i], tb[i])
				}
			}
			if a.sw.Totals() != b.sw.Totals() || a.sw.Chained != b.sw.Chained {
				t.Fatalf("counters: live %+v chained %d, restored %+v chained %d", a.sw.Totals(), a.sw.Chained, b.sw.Totals(), b.sw.Chained)
			}
			if !bytes.Equal(a.appendAll(t), b.appendAll(t)) {
				t.Fatal("after the same 3000 cycles the two switches encode to different bytes")
			}
		})
	}
}

// TestRestoreRefusals: the switch refuses a state it cannot hold, and an
// arbiter that cannot carry one.
func TestRestoreRefusals(t *testing.T) {
	a := newStateSwitch(t, Config{})
	a.attach(t)
	a.sw.Run(500)
	blob := a.appendAll(t)

	used := newStateSwitch(t, Config{})
	used.attach(t)
	if err := used.restoreAll(wire.NewReader(blob)); err == nil || !strings.Contains(err.Error(), "fresh") {
		t.Fatalf("restore into a switch with flows attached: %v", err)
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if err := newStateSwitch(t, Config{}).restoreAll(wire.NewReader(blob[:cut])); err == nil {
			t.Fatalf("a state cut to %d of %d bytes restored", cut, len(blob))
		}
	}
	lrg, err := New(Config{Radix: 4, BEBufferFlits: 8}, func(int) arb.Arbiter { return arb.NewLRG(4) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lrg.AppendState(nil); err == nil {
		t.Fatal("a switch of stateless-interface arbiters was snapshotted")
	}
}
