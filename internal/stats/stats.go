// Package stats collects per-flow delivery statistics from the switch
// simulator: accepted throughput, packet latency (total and network), and
// worst-case waiting times, over a configurable measurement window.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

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

	// keys and flows list the flows seen in the window, in first-delivery
	// order. flows keeps its recycled FlowStats past its length after a
	// Reset, so a worker reusing one collector for a whole sweep stops
	// allocating once its flow population peaks.
	keys  []FlowKey
	flows []*FlowStats
	// slots is an open-addressed table over keys (linear probing, never
	// more than half full): 1 + the flow's index in keys, or 0 for empty.
	// A key's home is the top bits of its packed form times a
	// multiplicative constant; shift is 64 - log2(len(slots)).
	slots []int32
	shift uint
}

// NewCollector returns a collector measuring cycles [warmup, end). end 0
// means "until the run stops"; call Close with the final cycle to fix the
// window length for throughput computation.
func NewCollector(warmup, end noc.Cycle) *Collector {
	return &Collector{Warmup: warmup, End: end}
}

// Reset clears the collector for a new measurement window, retaining its
// allocations (the flow table and per-flow structs) for reuse. Results
// read from the collector before Reset must have been copied out —
// FlowStats pointers obtained earlier are recycled.
func (c *Collector) Reset(warmup, end noc.Cycle) {
	c.Warmup, c.End = warmup, end
	for _, f := range c.flows {
		*f = FlowStats{LatMin: math.MaxUint64}
	}
	c.keys, c.flows = c.keys[:0], c.flows[:0]
	clear(c.slots)
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
	pos := c.find(k)
	var f *FlowStats
	if pos >= 0 {
		f = c.flows[c.slots[pos]-1]
	} else {
		f = c.insert(k, ^pos)
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

// find returns the slot holding k, or ^slot of the empty slot where k
// belongs (^0 when the table is not built yet).
func (c *Collector) find(k FlowKey) int {
	if len(c.slots) == 0 {
		return ^0
	}
	mask := len(c.slots) - 1
	packed := uint64(k.Src)<<34 ^ uint64(k.Dst)<<2 ^ uint64(k.Class)
	for i := int(packed * 0x9e3779b97f4a7c15 >> c.shift); ; i = (i + 1) & mask {
		j := c.slots[i]
		if j == 0 {
			return ^i
		}
		if c.keys[j-1] == k {
			return i
		}
	}
}

// insert lists k as the window's next flow, at empty slot pos, and
// returns its statistics: a recycled FlowStats when Reset left one.
func (c *Collector) insert(k FlowKey, pos int) *FlowStats {
	n := len(c.keys)
	if 2*(n+1) > len(c.slots) {
		c.grow()
		pos = ^c.find(k)
	}
	var f *FlowStats
	if n < cap(c.flows) {
		f = c.flows[:n+1][n]
	}
	if f == nil {
		f = &FlowStats{LatMin: math.MaxUint64}
	}
	c.keys = append(c.keys, k)
	c.flows = append(c.flows, f)
	c.slots[pos] = int32(n + 1)
	return f
}

// grow doubles the table (16 slots at first) and re-files every key.
func (c *Collector) grow() {
	size := max(16, 2*len(c.slots))
	c.slots = make([]int32, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for j, k := range c.keys {
		c.slots[^c.find(k)] = int32(j + 1)
	}
}

func bitLen(v uint64) int { return bits.Len64(v) }

// Flow returns the statistics for a flow, or nil if it delivered nothing
// in the window.
func (c *Collector) Flow(k FlowKey) *FlowStats {
	if pos := c.find(k); pos >= 0 {
		return c.flows[c.slots[pos]-1]
	}
	return nil
}

// Keys returns the observed flow keys in deterministic order: by
// destination, then source, then class.
func (c *Collector) Keys() []FlowKey {
	keys := append(make([]FlowKey, 0, len(c.keys)), c.keys...)
	slices.SortFunc(keys, func(a, b FlowKey) int {
		if a.Dst != b.Dst {
			return cmp.Compare(a.Dst, b.Dst)
		}
		if a.Src != b.Src {
			return cmp.Compare(a.Src, b.Src)
		}
		return cmp.Compare(a.Class, b.Class)
	})
	return keys
}

// Throughput returns a flow's accepted throughput in flits per cycle over
// the measurement window.
func (c *Collector) Throughput(k FlowKey) float64 {
	f := c.Flow(k)
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
	// An integer sum, so the order of the flow list cannot show.
	var flits uint64
	for j, k := range c.keys {
		if k.Dst == dst {
			flits += c.flows[j].Flits
		}
	}
	return float64(flits) / float64(w.Uint())
}

// GBTolerance is the share of its reservation a GB flow must accept for
// the GB promise to hold: "within 2%" of the reserved rate (§4.2, §4.3).
const GBTolerance = 0.98

// Verdict judges one promise over a set of flows: the GB reserved rate
// (Collector.GB) or the GL waiting bound (Collector.GL). A failed run is
// judged by the caller, as err == nil && v.Holds().
type Verdict struct {
	// Worst is the worst flow's measurement: the smallest accepted/
	// reserved ratio for GB, the longest wait in cycles for GL. At is the
	// index of the first flow at Worst, -1 when none was judged.
	Worst float64
	At    int
	// Bound is what a flow is held to: GBTolerance of its reservation for
	// GB, the wait in cycles for GL. Failing counts the flows beyond it.
	Bound   float64
	Failing int
	// Evidence counts the packets the judged flows delivered in the window.
	Evidence uint64
}

// Holds reports whether the promise held on evidence: at least one packet
// judged, and no flow failing.
func (v Verdict) Holds() bool { return v.Evidence > 0 && v.Failing == 0 }

// GB judges the GB promise over the flows that reserve a rate: each must
// accept at least GBTolerance of its reservation over the window. Worst
// is the smallest accepted/reserved ratio.
func (c *Collector) GB(flows []noc.FlowSpec) Verdict {
	v := Verdict{At: -1, Bound: GBTolerance}
	for i, s := range flows {
		if s.Rate <= 0 {
			continue
		}
		got := c.Throughput(SpecKey(s))
		if ratio := got / s.Rate; v.At < 0 || ratio < v.Worst {
			v.Worst, v.At = ratio, i
		}
		if got < GBTolerance*s.Rate {
			v.Failing++
		}
		if f := c.Flow(SpecKey(s)); f != nil {
			v.Evidence += f.Packets
		}
	}
	return v
}

// GBNotRun is the GB verdict on flows whose run never started: nothing
// was measured (At is -1), and every flow that reserves a rate fails,
// having accepted none of it.
func GBNotRun(flows []noc.FlowSpec) Verdict {
	v := Verdict{At: -1, Bound: GBTolerance}
	for _, s := range flows {
		if s.Rate > 0 {
			v.Failing++
		}
	}
	return v
}

// GL judges the GL promise (Eq. 1) over flows: no packet of theirs
// delivered in the window may have waited longer than bound cycles.
// Worst is the longest wait.
func (c *Collector) GL(bound float64, flows ...noc.FlowSpec) Verdict {
	v := Verdict{At: -1, Bound: bound}
	for i, s := range flows {
		f := c.Flow(SpecKey(s))
		if f == nil {
			continue
		}
		wait := float64(f.WaitMax)
		if v.At < 0 || wait > v.Worst {
			v.Worst, v.At = wait, i
		}
		if wait > bound {
			v.Failing++
		}
		v.Evidence += f.Packets
	}
	return v
}

// TotalPackets returns the number of packets delivered in the window.
func (c *Collector) TotalPackets() uint64 {
	var n uint64
	for _, f := range c.flows {
		n += f.Packets
	}
	return n
}
