package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// mapCollector is the collector as it was before its flow table: a
// map[FlowKey] and sorted keys. It is the reference of
// TestCollectorMatchesMap and FuzzCollector.
type mapCollector struct {
	warmup, end noc.Cycle
	flows       map[FlowKey]*FlowStats
}

func newMapCollector(warmup, end noc.Cycle) *mapCollector {
	return &mapCollector{warmup: warmup, end: end, flows: make(map[FlowKey]*FlowStats)}
}

func (c *mapCollector) onDeliver(p *noc.Packet) {
	if p.DeliveredAt < c.warmup || (c.end > 0 && p.DeliveredAt >= c.end) {
		return
	}
	k := KeyOf(p)
	f := c.flows[k]
	if f == nil {
		f = &FlowStats{LatMin: math.MaxUint64}
		c.flows[k] = f
	}
	lat := p.TotalLatency().Uint()
	wait := p.WaitingTime().Uint()
	f.Packets++
	f.Flits += uint64(p.Length)
	f.LatSum += lat
	f.LatMin = min(f.LatMin, lat)
	f.LatMax = max(f.LatMax, lat)
	f.NetLatSum += p.NetworkLatency().Uint()
	f.WaitSum += wait
	f.WaitMax = max(f.WaitMax, wait)
	f.hist[bitLen(lat)]++
}

func (c *mapCollector) keys() []FlowKey {
	keys := make([]FlowKey, 0, len(c.flows))
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

// collectorPorts are the sources and destinations the tests draw keys
// from: negative, zero, small, and large enough that several pack to the
// same table home (a source's bits from 30 up are shifted out, so 1<<30
// packs as 0 does). Every value fits a 32-bit int.
var collectorPorts = []int{math.MinInt, math.MinInt + 1, -1 << 20, -70000, -1, 0, 1, 2, 3, 63, 64, 1 << 20, 1 << 30, 1<<30 + 1, math.MaxInt - 1, math.MaxInt}

// collectorKey is key number i of the pool: every port pair in every
// class.
func collectorKey(i int) FlowKey {
	n := len(collectorPorts)
	i %= n * n * noc.NumClasses
	return FlowKey{Src: collectorPorts[i%n], Dst: collectorPorts[i/n%n], Class: noc.Class(i / (n * n))}
}

func collectorPoolSize() int { return len(collectorPorts) * len(collectorPorts) * noc.NumClasses }

// deliveredAs is a delivered packet of flow k with the given latencies.
func deliveredAs(k FlowKey, length int, at, lat, net, wait noc.Cycle) *noc.Packet {
	return &noc.Packet{
		Src: k.Src, Dst: k.Dst, Class: k.Class, Length: length,
		CreatedAt: noc.SatSub(at, lat), EnqueuedAt: noc.SatSub(at, net),
		GrantedAt: noc.SatSub(at, net) + wait, DeliveredAt: at,
	}
}

// compareCollector returns how c differs from the reference, or "".
func compareCollector(c *Collector, ref *mapCollector) string {
	if c.Warmup != ref.warmup || c.End != ref.end {
		return fmt.Sprintf("window [%d, %d), reference [%d, %d)", c.Warmup, c.End, ref.warmup, ref.end)
	}
	for i := 0; i < collectorPoolSize(); i++ {
		k := collectorKey(i)
		got, want := c.Flow(k), ref.flows[k]
		switch {
		case (got == nil) != (want == nil):
			return fmt.Sprintf("Flow(%v) = %v, reference %v", k, got, want)
		case got != nil && *got != *want:
			return fmt.Sprintf("Flow(%v) = %+v, reference %+v", k, *got, *want)
		}
	}
	keys, want := c.Keys(), ref.keys()
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		return fmt.Sprintf("Keys() = %v, reference %v", keys, want)
	}
	var total uint64
	for _, k := range want {
		total += ref.flows[k].Packets
	}
	if got := c.TotalPackets(); got != total {
		return fmt.Sprintf("TotalPackets() = %d, reference %d", got, total)
	}
	for _, dst := range collectorPorts {
		var flits uint64
		for _, k := range want {
			if k.Dst == dst {
				flits += ref.flows[k].Flits
			}
		}
		if w := c.Window(); w > 0 {
			if got := c.OutputThroughput(dst); got != float64(flits)/float64(w.Uint()) {
				return fmt.Sprintf("OutputThroughput(%d) = %g, reference %d flits over %d cycles", dst, got, flits, w.Uint())
			}
		}
		for class := noc.Class(0); class < noc.NumClasses; class++ {
			var wait, packets uint64
			for _, k := range want {
				if k.Dst == dst && k.Class == class {
					wait, packets = max(wait, ref.flows[k].WaitMax), packets+ref.flows[k].Packets
				}
			}
			if gw, gp := c.WorstWait(dst, class); gw != wait || gp != packets {
				return fmt.Sprintf("WorstWait(%d, %v) = (%d, %d), reference (%d, %d)", dst, class, gw, gp, wait, packets)
			}
		}
	}
	return ""
}

// collectorRun drives a collector and the reference through ops, four
// bytes a delivery: key, delivery cycle, latency, length. A delivery
// whose key byte is 0xff resets both to a new window instead, and
// checks that the reset collector hands its FlowStats out again.
func collectorRun(t *testing.T, ops []byte) (deliveries, resets int) {
	t.Helper()
	c, ref := NewCollector(16, 240), newMapCollector(16, 240)
	var recycled map[*FlowStats]bool
	for len(ops) >= 4 {
		b := ops[:4]
		ops = ops[4:]
		if b[0] == 0xff {
			if msg := compareCollector(c, ref); msg != "" {
				t.Fatalf("before reset %d: %s", resets, msg)
			}
			recycled = make(map[*FlowStats]bool)
			for _, k := range c.Keys() {
				recycled[c.Flow(k)] = true
			}
			warmup, end := noc.Cycle(b[1]), noc.Cycle(b[1])+noc.Cycle(b[2])
			if b[3]%4 == 0 {
				end = 0
			}
			c.Reset(warmup, end)
			ref = newMapCollector(warmup, end)
			resets++
			continue
		}
		k := collectorKey(int(b[0]) * 7)
		p := deliveredAs(k, 1+int(b[3]%16), noc.Cycle(b[1]), noc.Cycle(b[2]), noc.Cycle(b[2]/2), noc.Cycle(b[2]/4))
		seen := c.Flow(k) != nil
		c.OnDeliver(p)
		ref.onDeliver(p)
		if f := c.Flow(k); !seen && f != nil && len(recycled) > 0 {
			if !recycled[f] {
				t.Fatalf("a new flow after reset %d got a fresh FlowStats while %d recycled ones wait", resets, len(recycled))
			}
			delete(recycled, f)
		}
		deliveries++
	}
	if msg := compareCollector(c, ref); msg != "" {
		t.Fatalf("after %d deliveries and %d resets: %s", deliveries, resets, msg)
	}
	return deliveries, resets
}

// collectorSeed expands a seed into ops: mostly deliveries, a reset in
// about every hundred.
func collectorSeed(seed uint64, n int) []byte {
	rng := traffic.NewRNG(seed)
	ops := make([]byte, 4*n)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
		if i%4 == 0 && ops[i] == 0xff && rng.Intn(2) == 0 {
			ops[i] = 0
		}
	}
	for i := 0; i < n; i += 100 + rng.Intn(20) {
		ops[4*i] = 0xff
	}
	return ops
}

// TestCollectorMatchesMap holds the flow table to the map it replaced:
// the same statistics for every key of a pool with negative, zero and
// large ports in every class (nil for a key never delivered), the same
// Keys() order and reductions, and every FlowStats recycled across
// Reset. Delivering to a flow already seen allocates nothing.
func TestCollectorMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		if _, resets := collectorRun(t, collectorSeed(seed, 2000)); resets < 10 {
			t.Fatalf("seed %d: only %d resets", seed, resets)
		}
	}

	c := NewCollector(0, 0)
	for i := 0; i < collectorPoolSize(); i++ {
		c.OnDeliver(deliveredAs(collectorKey(i), 4, 100, 10, 5, 2))
	}
	if got := len(c.Keys()); got != collectorPoolSize() {
		t.Fatalf("%d keys for %d distinct flows", got, collectorPoolSize())
	}
	p := deliveredAs(collectorKey(7), 4, 100, 10, 5, 2)
	if allocs := testing.AllocsPerRun(1000, func() { c.OnDeliver(p) }); allocs != 0 {
		t.Fatalf("OnDeliver on a flow already seen: %g allocations, want 0", allocs)
	}
}

// FuzzCollector lets the fuzzer search the delivery and reset schedules
// of TestCollectorMatchesMap.
func FuzzCollector(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(collectorSeed(seed, 300))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		collectorRun(t, ops)
	})
}

// BenchmarkCollectorOnDeliver is the cost of one delivery to one of 64
// flows already seen: a saturated radix-64 output port's collector.
func BenchmarkCollectorOnDeliver(b *testing.B) {
	c := NewCollector(0, 0)
	pkts := make([]*noc.Packet, 64)
	for i := range pkts {
		k := FlowKey{Src: i, Dst: (i * 7) % 64, Class: noc.Class(i % noc.NumClasses)}
		pkts[i] = deliveredAs(k, 4, 1000, noc.Cycle(20+i), 10, 3)
		c.OnDeliver(pkts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnDeliver(pkts[i&63])
	}
}
