package compose

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"reflect"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// The request buckets, the route table, the barren-admission mask, the
// sleeping outputs and the completion calendar are ways of not doing work
// whose outcome is known. What they skip survives here as the oracle: a
// serial cycle over the same Network state that asks Topology.Route for
// every head every cycle, has every idle output scan every head for the
// ones routed to it, calls AdmitGroup on every group with a queued packet,
// and moves every transmission one flit a cycle, finishing it when its
// Remaining count runs out. It reads the stall windows from the schedule
// itself, port by port as it visits, and counts the live stalled
// output-cycles it meets (stalls), where the engine reads the injector's
// mask and the injector counts in bulk. What happens once a transmission
// ends (Network.finish), the arbiter clock and fail-stop handling are not
// what the engine changed and are shared.
type scanOracle struct {
	n      *Network
	heads  []*noc.Packet
	routes []int
	reqs   []arb.Request
	stalls uint64
}

// halted reports whether output f moves nothing and grants nothing in
// cycle now, counting the cycle of a live stalled one.
func (o *scanOracle) halted(f int, now noc.Cycle) bool {
	n := o.n
	if n.faults == nil || arb.MaskHas(n.deadOut, f) {
		return n.faults != nil
	}
	for _, w := range n.faults.Config().Stalls {
		if w.Port == f && now >= w.From && now < w.Until {
			o.stalls++
			return true
		}
	}
	return false
}

// newScanOracle sizes the oracle's scratch for n's widest node.
func newScanOracle(n *Network) *scanOracle {
	o := &scanOracle{n: n}
	for _, p := range n.cfg.Topology.Ports {
		if p > len(o.heads) {
			o.heads = make([]*noc.Packet, p)
			o.routes = make([]int, p)
		}
	}
	return o
}

func (o *scanOracle) step() {
	n := o.n
	if n.err != nil {
		return
	}
	now := n.now
	if n.faults != nil {
		if fs := n.faults.BeginCycle(now); len(fs) > 0 {
			for _, f := range fs {
				n.applyFailStop(f)
			}
			n.recomputeActive()
		}
	}
	o.inject(now)
	o.transfer(now)
	o.arbitrate(now)
	n.clocks.Tick(now)
	n.now++
}

func (o *scanOracle) inject(now noc.Cycle) {
	n := o.n
	n.Injected += n.sources.Generate(now)
	try := func(p *noc.Packet) bool {
		if n.faults != nil && arb.MaskHas(n.deadIn, p.Src) {
			n.dropPkt(p)
			return true
		}
		at := n.cfg.Topology.Terminals[p.Src]
		nd := n.nodes[at.Node]
		if !nd.in[at.Port].Admit(p) {
			return false
		}
		p.EnqueuedAt = now
		n.Admitted++
		n.push(nd, at.Port)
		return true
	}
	visited := 0
	for w, mm := range n.sources.NonEmptyMask() {
		for mm != 0 {
			g := w<<6 + bits.TrailingZeros64(mm)
			mm &= mm - 1
			n.sources.AdmitGroup(g, try)
			visited++
		}
	}
	n.SkippedAdmits += uint64(n.sources.Groups() - visited)
}

// transfer is the per-flit walk: every transmitting output, in ascending
// node and port order, moves one flit unless halted, and finishes on its
// last.
func (o *scanOracle) transfer(now noc.Cycle) {
	n := o.n
	for w, mm := range n.tx {
		for ; mm != 0; mm &= mm - 1 {
			f := w<<6 + bits.TrailingZeros64(mm)
			if o.halted(f, now) {
				continue
			}
			nd := n.nodes[n.portNode[f]]
			tx := nd.out[f-nd.fbase]
			n.DataCycles++
			if tx.Remaining--; tx.Remaining == 0 {
				n.finish(f, now)
			}
		}
	}
}

// arbitrate visits every node with work; the ports of the others are
// idle and skipped, but for the halted ones.
func (o *scanOracle) arbitrate(now noc.Cycle) {
	n := o.n
	skipped := uint64(0)
	for _, nd := range n.nodes {
		if n.err != nil {
			return
		}
		if n.work[nd.id] > 0 {
			o.arbitrateNode(nd, now)
			continue
		}
		for out := range nd.out {
			if !o.halted(nd.fbase+out, now) {
				skipped++
			}
		}
	}
	n.IdleCycles += skipped
	n.SkippedOutputs += skipped
}

func (o *scanOracle) arbitrateNode(nd *node, now noc.Cycle) {
	n := o.n
	ports := len(nd.in)
	heads := o.heads[:ports]
	routes := o.routes[:ports]
	for port := range nd.in {
		heads[port] = nil
		if nd.inBusy[port] {
			continue
		}
		p := nd.in[port].Head()
		if p == nil || p.HoldUntil > now {
			continue
		}
		route := n.cfg.Topology.Route(nd.id, p.Dst)
		if n.faults != nil && arb.MaskHas(n.deadOut, n.portBase[nd.id]+route) {
			n.dropPkt(nd.in[port].Pop())
			n.subWork(nd)
			continue
		}
		heads[port] = p
		routes[port] = route
	}
	for out := range nd.out {
		if nd.out[out] != nil {
			continue
		}
		if o.halted(nd.fbase+out, now) {
			continue
		}
		if arb.MaskHas(n.cool, nd.fbase+out) {
			arb.MaskClear(n.cool, nd.fbase+out)
			n.subWork(nd)
			continue
		}
		reqs := o.reqs[:0]
		for in, p := range heads {
			if p == nil || routes[in] != out {
				continue
			}
			if nd.hasNext[out] {
				next := nd.next[out]
				if !n.nodes[next.Node].in[next.Port].CanAccept(p.Length) {
					continue
				}
			}
			reqs = append(reqs, arb.Request{Input: in, Class: p.Class, Packet: p})
		}
		if len(reqs) == 0 {
			n.IdleCycles++
			continue
		}
		n.ArbCycles++
		w := nd.arbs[out].Arbitrate(now, reqs)
		if w < 0 {
			continue
		}
		req := reqs[w]
		p := nd.in[req.Input].Pop()
		if p != req.Packet {
			n.fail(fmt.Errorf("oracle: cycle %d: node %d granted packet %d but it is not the head", now, nd.id, req.Packet.ID))
			return
		}
		if p.GrantedAt == 0 && (!n.cfg.Topology.grantAtSource || nd.id == n.cfg.Topology.Terminals[p.Src].Node) {
			p.GrantedAt = now
		}
		if nd.hasNext[out] {
			next := nd.next[out]
			n.nodes[next.Node].in[next.Port].Reserve(p.Length)
		}
		nd.inBusy[req.Input] = true
		nd.out[out] = n.txs[nd.fbase+out].Start(p, req.Input)
		arb.MaskSet(n.tx, nd.fbase+out)
		nd.arbs[out].Granted(now, req)
	}
}

// star is a hub (node 0) with one port per leaf, each leaf a two-port
// node: port 0 its terminal, port 1 the link pair to the hub. With 70
// leaves the hub's request masks are two words wide.
func star(leaves int) Topology {
	topo := Topology{Ports: make([]int, leaves+1), Links: make(map[PortRef]PortRef)}
	topo.Ports[0] = leaves
	for l := 0; l < leaves; l++ {
		topo.Ports[l+1] = 2
		topo.Terminals = append(topo.Terminals, PortRef{Node: l + 1, Port: 0})
		topo.Links[PortRef{Node: 0, Port: l}] = PortRef{Node: l + 1, Port: 1}
		topo.Links[PortRef{Node: l + 1, Port: 1}] = PortRef{Node: 0, Port: l}
	}
	topo.Route = func(node, terminal int) int {
		switch node {
		case 0:
			return terminal
		case terminal + 1:
			return 0
		}
		return 1
	}
	return topo
}

type bucketCase struct {
	wiring    string // mesh4x4, mesh3x5, clos, star70
	saturated bool
	faults    string // none, inert, real
	seed      uint64 // offsets every traffic and fault seed; 0 is the original draw
}

func (bc bucketCase) String() string {
	load := "bernoulli"
	if bc.saturated {
		load = "saturated"
	}
	return fmt.Sprintf("%s/%s/faults=%s/seed%d", bc.wiring, load, bc.faults, bc.seed)
}

// oracleSeeds is the seed axis of the lock-step oracles in this package:
// each seed is another arrival pattern, another interleaving of the
// events the oracles hold the engine to.
var oracleSeeds = []uint64{0, 1, 2, 3}

// bucketNet is one side of the differential: the network, the LRG state of
// every arbiter in construction order, and the running delivery hash.
type bucketNet struct {
	net       *Network
	seq       *traffic.Sequence
	ranks     []*arb.LRGState
	delivered int
	order     uint64
}

// lrgRanks flattens every arbiter's LRG order.
func (b *bucketNet) lrgRanks() [][]int {
	out := make([][]int, len(b.ranks))
	for i, st := range b.ranks {
		for in := 0; in < st.Size(); in++ {
			out[i] = append(out[i], st.Rank(in))
		}
	}
	return out
}

// buildBucketNet wires bc's topology (SSVC arbiters on the Clos, LRG
// elsewhere), its fault schedule and its flows: four per terminal with
// lengths 1, 4, 16 and 4 flits, so that within a shared injection group
// a short head is admissible where a long one is not, and a 4x4 mesh
// starts with exactly 64 groups — the late flow grows the mask by a word.
func buildBucketNet(t *testing.T, bc bucketCase) *bucketNet {
	t.Helper()
	var topo Topology
	var err error
	switch bc.wiring {
	case "mesh4x4":
		topo, err = Mesh(4, 4)
	case "mesh3x5":
		topo, err = Mesh(3, 5)
	case "clos":
		topo, err = TwoLevelClos(4, 4, 2)
	case "star70":
		topo = star(70)
	}
	if err != nil {
		t.Fatal(err)
	}
	b := &bucketNet{seq: new(traffic.Sequence)}
	b.net, err = New(Config{
		Topology: topo, BufferFlits: 16,
		NewArbiter: func(_, _, ports int) arb.Arbiter {
			if bc.wiring != "clos" {
				a := arb.NewLRG(ports)
				b.ranks = append(b.ranks, a.State())
				return a
			}
			s := core.NewSSVC(core.Config{
				Radix: ports, CounterBits: 8, SigBits: 3,
				Policy: core.SubtractRealTime, Vticks: tickVticks(ports, 1),
			})
			b.ranks = append(b.ranks, s.LRG())
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := b.net
	terms := n.Terminals()
	switch bc.faults {
	case "inert":
		err = n.SetFaults(faults.Config{})
	case "real":
		// Terminal 3's first flow leaves its node through firstHop: with
		// that output dead its packets are discarded at the head of the
		// attachment port itself, the one pop no grant accounts for.
		at := topo.Terminals[3]
		firstHop := n.PortBase(at.Node) + topo.Route(at.Node, 4%terms)
		err = n.SetFaults(faults.Config{
			Seed:        7 + bc.seed,
			CorruptProb: 0.02,
			BackoffBase: 4,
			Stalls: []faults.StallWindow{
				{Port: n.PortBase(0), From: 200, Until: 330},
				{Port: n.PortBase(1) + 1, From: 600, Until: 640},
			},
			FailStops: []faults.FailStop{
				{Input: true, Port: 2, At: 500},
				{Port: firstHop, At: 700},
			},
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < terms; i++ {
		for k, f := range []struct {
			length, hop int
			rate        float64
		}{{1, 1, 0.02}, {4, terms / 2, 0.005}, {16, 3, 0.001}, {4, 5, 0.005}} {
			spec := noc.FlowSpec{Src: i, Dst: (i + f.hop) % terms, Class: noc.BestEffort, PacketLength: f.length}
			if k == 1 {
				spec.Class, spec.Rate = noc.GuaranteedBandwidth, 0.2
			}
			switch {
			case !bc.saturated:
				addFlow(t, n, spec, traffic.NewBernoulli(b.seq, spec, f.rate, uint64(100*i+k)+bc.seed<<32))
			case k == 0:
				// The one-flit queue runs dry now and then, so a group is
				// masked with a few flits free and the next one-flit
				// arrival has to unmask it.
				addFlow(t, n, spec, traffic.NewBernoulli(b.seq, spec, 0.3, uint64(100*i)+bc.seed<<32))
			default:
				addFlow(t, n, spec, traffic.NewBacklogged(b.seq, spec, 3))
			}
		}
	}
	h := fnv.New64a()
	n.OnDeliver(func(p *noc.Packet) {
		// No packet ID: nothing observable consumes IDs.
		fmt.Fprintln(h, p.Src, p.Dst, p.Class, p.Length, p.CreatedAt, p.EnqueuedAt, p.GrantedAt, p.DeliveredAt)
		b.delivered++
		b.order = h.Sum64()
	})
	n.OnRelease(b.seq.Recycle)
	return b
}

// skippedGroups checks the mask's invariant — a masked group's admission
// attempt would move nothing, whatever its rotation tries — and returns
// how many groups are masked. The recording try refuses every head, so
// the probe leaves the rotation and the queues as they were.
func skippedGroups(t *testing.T, n *Network) int {
	t.Helper()
	masked := 0
	for g := 0; g < n.sources.Groups(); g++ {
		if !arb.MaskHas(n.sources.SkipMask(), g) {
			continue
		}
		masked++
		admissible := false
		got := n.sources.AdmitGroup(g, func(p *noc.Packet) bool {
			at := n.cfg.Topology.Terminals[p.Src]
			if (n.faults != nil && arb.MaskHas(n.deadIn, p.Src)) || n.nodes[at.Node].in[at.Port].CanAccept(p.Length) {
				admissible = true
			}
			return false
		})
		if got != nil || admissible {
			t.Fatalf("cycle %d: group %d is masked but has an admissible head", n.now, g)
		}
	}
	return masked
}

// TestBucketsMatchScan runs the engine and the scan oracle in lock step
// and requires the same counters after every cycle, and at the end the
// same delivery-order hash, fault counters and LRG order in every
// arbiter. Midway a flow joins terminal 1: on the wirings with one group
// per terminal the test waits for a cycle in which that group is masked.
// Every case runs at each of oracleSeeds.
func TestBucketsMatchScan(t *testing.T) {
	const cycles, lateFrom = 1600, 900
	for _, wiring := range []string{"mesh4x4", "mesh3x5", "clos", "star70"} {
		for _, saturated := range []bool{true, false} {
			for _, fault := range []string{"none", "inert", "real"} {
				for _, seed := range oracleSeeds {
					bc := bucketCase{wiring, saturated, fault, seed}
					t.Run(bc.String(), func(t *testing.T) {
						got := buildBucketNet(t, bc)
						want := buildBucketNet(t, bc)
						oracle := newScanOracle(want.net)
						n := got.net
						sharedGroups := !n.cfg.Topology.flowGroups
						masked, lateAt := 0, noc.Cycle(0)
						for n.now < cycles {
							if lateAt == 0 && n.now >= lateFrom {
								g1 := 0
								if sharedGroups {
									g1 = 1 // terminal 1's own group
								}
								// Only a saturated attachment port is sure to
								// refuse its group sooner or later.
								if !sharedGroups || !saturated || arb.MaskHas(n.sources.SkipMask(), g1) {
									lateAt = n.now
									late := noc.FlowSpec{Src: 1, Dst: 0, Class: noc.BestEffort, PacketLength: 1}
									addFlow(t, n, late, traffic.NewBacklogged(got.seq, late, 2))
									addFlow(t, want.net, late, traffic.NewBacklogged(want.seq, late, 2))
								}
							}
							n.Step()
							oracle.step()
							if n.Totals() != want.net.Totals() {
								t.Fatalf("cycle %d: counters diverge:\n got %+v\nwant %+v", n.now-1, n.Totals(), want.net.Totals())
							}
							masked += skippedGroups(t, n)
						}
						if err := n.Err(); err != nil {
							t.Fatalf("engine froze: %v", err)
						}
						if err := want.net.Err(); err != nil {
							t.Fatalf("oracle froze: %v", err)
						}
						if lateAt == 0 {
							t.Fatal("terminal 1's group was never masked after the late-flow cycle: the late AddFlow went untested")
						}
						if got.delivered < 300 {
							t.Fatalf("only %d deliveries: the scenario is too quiet", got.delivered)
						}
						if saturated && masked == 0 {
							t.Fatal("a saturated run never masked a group")
						}
						if got.order != want.order || got.delivered != want.delivered {
							t.Errorf("delivery trace diverges: %d packets hash %#x, oracle %d packets hash %#x",
								got.delivered, got.order, want.delivered, want.order)
						}
						if n.FaultTotals() != want.net.FaultTotals() {
							t.Errorf("fault counters diverge:\n got %+v\nwant %+v", n.FaultTotals(), want.net.FaultTotals())
						}
						if oracle.stalls != n.FaultTotals().StallCycles {
							t.Errorf("the injector counted %d stall cycles, the oracle met %d", n.FaultTotals().StallCycles, oracle.stalls)
						}
						if fault == "real" && (n.FaultTotals().Retransmissions == 0 || n.FaultTotals().StallCycles == 0 || n.Dropped == 0) {
							t.Errorf("the fault schedule did not bite: %+v, %d dropped", n.FaultTotals(), n.Dropped)
						}
						if !reflect.DeepEqual(got.lrgRanks(), want.lrgRanks()) {
							t.Errorf("LRG order diverges in some arbiter")
						}
					})
				}
			}
		}
	}
}
