package stats

import (
	"testing"

	"swizzleqos/internal/noc"
)

func TestSeriesWindowsAndThroughput(t *testing.T) {
	s := NewSeries(100)
	k := FlowKey{Src: 1, Dst: 2, Class: noc.BestEffort}
	// 3 packets of 4 flits in window 0, one in window 2.
	for _, at := range []noc.Cycle{10, 50, 99, 250} {
		s.OnDeliver(delivered(1, 2, noc.BestEffort, 4, at-5, at-5, at-2, at))
	}
	if s.Windows() != 3 {
		t.Fatalf("windows = %d, want 3", s.Windows())
	}
	if got := s.Throughput(k, 0); got != 0.12 {
		t.Errorf("window 0 throughput = %g, want 0.12", got)
	}
	if got := s.Throughput(k, 1); got != 0 {
		t.Errorf("window 1 throughput = %g, want 0", got)
	}
	if got := s.Throughput(k, 2); got != 0.04 {
		t.Errorf("window 2 throughput = %g, want 0.04", got)
	}
	if got := s.Throughput(k, 99); got != 0 {
		t.Errorf("out-of-range window = %g, want 0", got)
	}
}

func TestSeriesTotalThroughput(t *testing.T) {
	s := NewSeries(100)
	s.OnDeliver(delivered(0, 5, noc.BestEffort, 8, 0, 0, 1, 20))
	s.OnDeliver(delivered(1, 5, noc.GuaranteedBandwidth, 8, 0, 0, 1, 30))
	s.OnDeliver(delivered(1, 6, noc.BestEffort, 8, 0, 0, 1, 40))
	if got := s.TotalThroughput(5, 0); got != 0.16 {
		t.Fatalf("dst 5 total = %g, want 0.16", got)
	}
}

func TestSeriesNegativeWindow(t *testing.T) {
	s := NewSeries(100)
	s.OnDeliver(delivered(0, 5, noc.BestEffort, 8, 0, 0, 1, 20))
	if got := s.Throughput(FlowKey{Src: 0, Dst: 5, Class: noc.BestEffort}, -1); got != 0 {
		t.Errorf("Throughput(-1) = %g, want 0", got)
	}
	if got := s.TotalThroughput(5, -1); got != 0 {
		t.Errorf("TotalThroughput(-1) = %g, want 0", got)
	}
}

func TestSeriesFirstWindowAtLeast(t *testing.T) {
	s := NewSeries(10)
	k := FlowKey{Src: 0, Dst: 0, Class: noc.BestEffort}
	s.OnDeliver(delivered(0, 0, noc.BestEffort, 2, 0, 0, 1, 5))  // window 0: 0.2
	s.OnDeliver(delivered(0, 0, noc.BestEffort, 8, 0, 0, 1, 25)) // window 2: 0.8
	if got := s.FirstWindowAtLeast(k, 0, 0.5); got != 2 {
		t.Errorf("FirstWindowAtLeast(0.5) = %d, want 2", got)
	}
	if got := s.FirstWindowAtLeast(k, 0, 0.9); got != -1 {
		t.Errorf("FirstWindowAtLeast(0.9) = %d, want -1", got)
	}
	if got := s.FirstWindowAtLeast(k, 3, 0.1); got != -1 {
		t.Errorf("FirstWindowAtLeast(from 3) = %d, want -1", got)
	}
}

func TestSeriesPanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSeries(0) did not panic")
		}
	}()
	NewSeries(0)
}
