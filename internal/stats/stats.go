// Package stats collects per-flow delivery statistics from the switch
// simulator: accepted throughput, packet latency (total and network), and
// worst-case waiting times, over a configurable measurement window.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"swizzleqos/internal/noc"
)

// FlowKey identifies a flow: one (source, destination, class) triple.
type FlowKey struct {
	Src   int
	Dst   int
	Class noc.Class
}

// String formats the key as "src->dst/CLASS".
func (k FlowKey) String() string { return fmt.Sprintf("%d->%d/%v", k.Src, k.Dst, k.Class) }

// KeyOf returns the flow key of a packet.
func KeyOf(p *noc.Packet) FlowKey { return FlowKey{Src: p.Src, Dst: p.Dst, Class: p.Class} }

// SpecKey returns the flow key of a flow spec.
func SpecKey(s noc.FlowSpec) FlowKey { return FlowKey{Src: s.Src, Dst: s.Dst, Class: s.Class} }

// FlowStats accumulates one flow's measurements.
type FlowStats struct {
	Packets uint64
	Flits   uint64

	// Total latency: creation to delivery of the last flit.
	LatSum uint64
	LatMin uint64
	LatMax uint64

	// Network latency: input-buffer arrival to delivery.
	NetLatSum uint64

	// Waiting time: input-buffer arrival to grant (the quantity bounded
	// by the paper's guaranteed-latency equation).
	WaitSum uint64
	WaitMax uint64

	// hist[i] counts packets whose total latency has bit length i,
	// giving power-of-two latency buckets for percentile estimates.
	hist [65]uint64
}

// MeanLatency returns the flow's mean total packet latency in cycles.
func (f *FlowStats) MeanLatency() float64 {
	if f.Packets == 0 {
		return 0
	}
	return float64(f.LatSum) / float64(f.Packets)
}

// MeanNetworkLatency returns the mean latency excluding source queueing.
func (f *FlowStats) MeanNetworkLatency() float64 {
	if f.Packets == 0 {
		return 0
	}
	return float64(f.NetLatSum) / float64(f.Packets)
}

// MeanWait returns the mean waiting time at the switch.
func (f *FlowStats) MeanWait() float64 {
	if f.Packets == 0 {
		return 0
	}
	return float64(f.WaitSum) / float64(f.Packets)
}

// LatencyPercentileUpperBound returns an upper bound for the p-quantile
// (0 < p <= 1) of total latency, from the power-of-two histogram: the top
// of the first bucket at which the cumulative count reaches p.
func (f *FlowStats) LatencyPercentileUpperBound(p float64) uint64 {
	if f.Packets == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(f.Packets)))
	var cum uint64
	for i, c := range f.hist {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return f.LatMax
}

// Collector observes packet deliveries during a measurement window.
// Deliveries before Warmup or at/after End (when End > 0) are ignored, so
// reported throughput reflects steady state.
type Collector struct {
	Warmup noc.Cycle
	End    noc.Cycle

	flows map[FlowKey]*FlowStats
	// free recycles FlowStats structs across Reset calls, so a worker
	// reusing one collector for a whole sweep stops allocating once its
	// flow population peaks.
	free []*FlowStats
}

// NewCollector returns a collector measuring cycles [warmup, end). end 0
// means "until the run stops"; call Close with the final cycle to fix the
// window length for throughput computation.
func NewCollector(warmup, end noc.Cycle) *Collector {
	return &Collector{Warmup: warmup, End: end, flows: make(map[FlowKey]*FlowStats)}
}

// Reset clears the collector for a new measurement window, retaining its
// allocations (the flow map and per-flow structs) for reuse. Results read
// from the collector before Reset must have been copied out — FlowStats
// pointers obtained earlier are recycled.
func (c *Collector) Reset(warmup, end noc.Cycle) {
	c.Warmup, c.End = warmup, end
	//ssvc:allow determinism Reset empties the map onto the free list; the order of the clears is unobservable
	for k, f := range c.flows {
		delete(c.flows, k)
		*f = FlowStats{LatMin: math.MaxUint64}
		c.free = append(c.free, f)
	}
}

// Close fixes the window end for throughput computations when End was 0.
func (c *Collector) Close(finalCycle noc.Cycle) {
	if c.End == 0 {
		c.End = finalCycle
	}
}

// Window returns the measurement window length in cycles.
func (c *Collector) Window() noc.Cycle {
	if c.End <= c.Warmup {
		return 0
	}
	return c.End - c.Warmup
}

// OnDeliver records a delivered packet. The switch calls it with the
// packet's timestamps filled in.
func (c *Collector) OnDeliver(p *noc.Packet) {
	if p.DeliveredAt < c.Warmup || (c.End > 0 && p.DeliveredAt >= c.End) {
		return
	}
	k := KeyOf(p)
	f := c.flows[k]
	if f == nil {
		if n := len(c.free); n > 0 {
			f, c.free = c.free[n-1], c.free[:n-1]
		} else {
			f = &FlowStats{LatMin: math.MaxUint64}
		}
		c.flows[k] = f
	}
	lat := p.TotalLatency().Uint()
	wait := p.WaitingTime().Uint()
	f.Packets++
	f.Flits += uint64(p.Length)
	f.LatSum += lat
	if lat < f.LatMin {
		f.LatMin = lat
	}
	if lat > f.LatMax {
		f.LatMax = lat
	}
	f.NetLatSum += p.NetworkLatency().Uint()
	f.WaitSum += wait
	if wait > f.WaitMax {
		f.WaitMax = wait
	}
	f.hist[bitLen(lat)]++
}

func bitLen(v uint64) int { return bits.Len64(v) }

// Flow returns the statistics for a flow, or nil if it delivered nothing
// in the window.
func (c *Collector) Flow(k FlowKey) *FlowStats { return c.flows[k] }

// Keys returns the observed flow keys in deterministic order.
func (c *Collector) Keys() []FlowKey {
	keys := make([]FlowKey, 0, len(c.flows))
	//ssvc:allow determinism Keys collects the keys, then sorts them before returning
	for k := range c.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Class < b.Class
	})
	return keys
}

// Throughput returns a flow's accepted throughput in flits per cycle over
// the measurement window.
func (c *Collector) Throughput(k FlowKey) float64 {
	f := c.flows[k]
	w := c.Window()
	if f == nil || w == 0 {
		return 0
	}
	return float64(f.Flits) / float64(w.Uint())
}

// OutputThroughput returns the total accepted throughput of one output
// port in flits per cycle.
func (c *Collector) OutputThroughput(dst int) float64 {
	w := c.Window()
	if w == 0 {
		return 0
	}
	// Sorted-key iteration: the sum is integer (order-insensitive), but
	// fixing the order keeps every aggregate on the one deterministic
	// path and survives a future switch to float accumulation.
	var flits uint64
	for _, k := range c.Keys() {
		if k.Dst == dst {
			flits += c.flows[k].Flits
		}
	}
	return float64(flits) / float64(w.Uint())
}

// Adherence returns a flow's guarantee-adherence ratio: accepted
// throughput over the measurement window divided by its reserved rate in
// flits per cycle. 1.0 means the reservation was exactly honored; values
// a little above 1 are normal for a backlogged flow absorbing slack
// bandwidth. Returns 0 when the reservation is zero.
func (c *Collector) Adherence(k FlowKey, reserved float64) float64 {
	if reserved <= 0 {
		return 0
	}
	return c.Throughput(k) / reserved
}

// WorstAdherence returns the smallest Adherence over the flows that
// reserve a rate, and the index in flows of the first flow at that
// minimum: the measured side of the GB promise (§4.2, §4.3: every flow
// within 2% of its reservation). It returns (0, -1) when no flow
// reserves a rate.
func (c *Collector) WorstAdherence(flows []noc.FlowSpec) (float64, int) {
	worst, at := 0.0, -1
	for i, s := range flows {
		if s.Rate <= 0 {
			continue
		}
		if a := c.Adherence(SpecKey(s), s.Rate); at < 0 || a < worst {
			worst, at = a, i
		}
	}
	return worst, at
}

// WorstWait returns the longest waiting time of any class packet
// delivered toward dst in the window, and how many such packets there
// were: the measured side of the GL bound (Eq. 1), and the evidence a
// verdict on it needs.
func (c *Collector) WorstWait(dst int, class noc.Class) (wait, packets uint64) {
	for _, k := range c.Keys() {
		if k.Dst == dst && k.Class == class {
			f := c.flows[k]
			wait = max(wait, f.WaitMax)
			packets += f.Packets
		}
	}
	return wait, packets
}

// TotalPackets returns the number of packets delivered in the window.
func (c *Collector) TotalPackets() uint64 {
	var n uint64
	for _, k := range c.Keys() {
		n += c.flows[k].Packets
	}
	return n
}
