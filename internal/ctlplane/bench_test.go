package ctlplane

import (
	"testing"

	"swizzleqos/internal/heaptest"
	"swizzleqos/internal/noc"
)

// idlePlane is a control plane attached but quiescent: live
// reservations generated through the plane's own admission path, one
// lease parked far past the run, no journal and no snapshot grid, warm
// (the packet pool's high-water mark settled).
func idlePlane(b testing.TB) *Plane {
	p, err := New(SimConfig{Radix: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cmds := []string{
		"add gb 0 1 rate=0.30 len=8 load=0.60",
		"add gb 2 3 rate=0.25 len=8 load=0.50",
		"add gl 4 5 rate=0.03 len=4 latency=400 burst=2",
		"add gb 6 7 rate=0.20 len=8 load=0.40 lease=1000000000",
	}
	for _, line := range cmds {
		cmd, err := ParseCommand(line)
		if err != nil {
			b.Fatal(err)
		}
		if res := p.Apply(cmd); !res.OK {
			b.Fatalf("apply %q: %v", line, res)
		}
	}
	if err := p.Advance(heaptest.Cycles); err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCtlPlaneIdle measures the steady-state cycle cost with the
// control plane attached but quiescent.
func BenchmarkCtlPlaneIdle(b *testing.B) {
	p := idlePlane(b)
	b.ReportAllocs()
	b.ResetTimer()
	if err := p.Advance(noc.Cycle(b.N)); err != nil {
		b.Fatal(err)
	}
}

// TestSteadyStateAllocs is the allocation gate: attaching the control
// plane must not reintroduce heap traffic into the engine's hot loop
// (the invariant the same test gates for the bare switch in switchsim).
func TestSteadyStateAllocs(t *testing.T) {
	p := idlePlane(t)
	t.Run("CtlPlaneIdle", func(t *testing.T) {
		heaptest.Zero(t, func(n int) {
			if err := p.Advance(noc.Cycle(n)); err != nil {
				t.Fatal(err)
			}
		})
	})
}
