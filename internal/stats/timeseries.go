package stats

import "swizzleqos/internal/noc"

// Series samples per-flow accepted throughput in fixed-width windows of
// cycles, for convergence and transient analysis (how quickly the
// scheduler re-establishes reservations after a workload change).
type Series struct {
	window noc.Cycle
	flits  map[FlowKey][]uint64
	// keys holds the observed flow keys in first-delivery order, the
	// deterministic iteration order for every aggregate (deliveries
	// reach OnDeliver in simulation order, never from a map walk).
	keys []FlowKey
	// last is the highest window index observed, so rows can be padded.
	last int
}

// NewSeries returns a sampler with the given window length in cycles.
func NewSeries(window noc.Cycle) *Series {
	if window == 0 {
		//ssvc:allow panicfreeze constructor precondition at experiment setup, before any engine exists to freeze
		panic("stats: series window must be positive")
	}
	return &Series{window: window, flits: make(map[FlowKey][]uint64)}
}

// Window returns the window length in cycles.
func (s *Series) Window() noc.Cycle { return s.window }

// OnDeliver accounts a delivered packet to its window.
func (s *Series) OnDeliver(p *noc.Packet) {
	idx := int((p.DeliveredAt / s.window).Uint())
	k := KeyOf(p)
	buf, seen := s.flits[k]
	if !seen {
		s.keys = append(s.keys, k)
	}
	for len(buf) <= idx {
		buf = append(buf, 0)
	}
	buf[idx] += uint64(p.Length)
	s.flits[k] = buf
	if idx > s.last {
		s.last = idx
	}
}

// Windows returns the number of observed windows.
func (s *Series) Windows() int { return s.last + 1 }

// Throughput returns flow k's accepted flits/cycle in window idx.
func (s *Series) Throughput(k FlowKey, idx int) float64 {
	buf := s.flits[k]
	if idx < 0 || idx >= len(buf) {
		return 0
	}
	return float64(buf[idx]) / float64(s.window.Uint())
}

// TotalThroughput returns the summed flits/cycle of all flows toward dst
// in window idx.
func (s *Series) TotalThroughput(dst, idx int) float64 {
	var flits uint64
	for _, k := range s.keys {
		buf := s.flits[k]
		if k.Dst != dst || idx >= len(buf) {
			continue
		}
		flits += buf[idx]
	}
	return float64(flits) / float64(s.window.Uint())
}

// FirstWindowAtLeast returns the first window index >= from where flow
// k's throughput reaches the threshold, or -1.
func (s *Series) FirstWindowAtLeast(k FlowKey, from int, threshold float64) int {
	for idx := from; idx <= s.last; idx++ {
		if s.Throughput(k, idx) >= threshold {
			return idx
		}
	}
	return -1
}
