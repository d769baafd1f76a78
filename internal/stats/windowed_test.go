package stats

import (
	"testing"

	"swizzleqos/internal/noc"
)

func TestWindowedPanicsOnBadBounds(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	expectPanic("single bound", func() { NewWindowed(100) })
	expectPanic("decreasing bounds", func() { NewWindowed(100, 50, 200) })
}

func TestWindowedDispatchesByDeliveryCycle(t *testing.T) {
	// Three phases: before [100,200), during [200,300), after [300,400).
	w := NewWindowed(100, 200, 300, 400)
	if w.Phases() != 3 {
		t.Fatalf("phases = %d, want 3", w.Phases())
	}
	k := FlowKey{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth}
	cycles := []noc.Cycle{50, 150, 250, 250, 350, 350, 350, 450}
	for _, at := range cycles {
		w.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 8, at-10, at-10, at-5, at))
	}
	want := []uint64{1, 2, 3} // 50 and 450 fall outside every phase
	for i, n := range want {
		f := w.Phase(i).Flow(k)
		got := uint64(0)
		if f != nil {
			got = f.Packets
		}
		if got != n {
			t.Errorf("phase %d: %d packets, want %d", i, got, n)
		}
	}
}

func TestWindowedPhaseWindows(t *testing.T) {
	w := NewWindowed(0, 10, 40)
	if got := w.Phase(0).Window(); got != 10 {
		t.Fatalf("phase 0 window = %d, want 10", got)
	}
	if got := w.Phase(1).Window(); got != 30 {
		t.Fatalf("phase 1 window = %d, want 30", got)
	}
}

// Phases returns the number of phases.
func (w *Windowed) Phases() int { return len(w.phases) }
