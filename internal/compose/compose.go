// Package compose is the routed-network engine: it simulates networks
// built from multiple crossbar switches, the scaling path the paper
// declines (§4.4): "Scaling to more nodes involves composing multiple
// switches, which makes the QoS technique more complex. Crosspoints will
// have to be shared by several flows, requiring more per-flow state
// storage."
//
// A routed network is a set of crossbar nodes joined by links, with
// static routing from every node toward every terminal. Each node is the
// same model as the single-stage switch: per-input-port packet buffers,
// one arbiter per output port, whole-packet (virtual cut-through)
// switching with downstream buffer reservation, and a one-cycle
// arbitration overhead per traversed node. The wiring is a Topology;
// TwoLevelClos and Mesh construct the two the experiments use, and a
// new wiring is a new constructor, not a new engine.
//
// The point the package exists to make: a first-stage crosspoint
// (terminal, uplink) carries every flow that terminal sends through the
// uplink, so an SSVC auxVC register there can only enforce the AGGREGATE
// of their reservations — per-flow guarantees dissolve at the first
// merge, unless routers grow per-flow state. The TwoLevelClos constructor
// plus the experiments package's Compose experiment quantify exactly
// that; the Mesh constructor (through package mesh) plus the Motivation
// experiment make the same point about the paper's multi-hop baseline.
package compose

import (
	"fmt"
	"math/bits"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// PortRef names one port of one node.
type PortRef struct {
	Node int
	Port int
}

// Topology describes a routed network. Ports[n] is node n's port
// count; Links joins output ports to input ports (unidirectional);
// Terminals[t] is the node/port where terminal t attaches (both its
// injection and ejection point); Route gives the output port at a node
// for traffic toward a terminal. Only constructors can set the two
// unexported fields (see Mesh for why they exist).
type Topology struct {
	Ports     []int
	Links     map[PortRef]PortRef // from (node, output port) to (node, input port)
	Terminals []PortRef
	Route     func(node, terminal int) int

	// flowGroups gives every flow its own injection group, so a terminal
	// admits one packet per flow per cycle. Unset, a terminal's flows
	// share one group and it admits one packet per cycle.
	flowGroups bool
	// grantAtSource stamps Packet.GrantedAt only at the node the packet's
	// source terminal attaches to. Unset, any node stamps it while it is
	// still zero.
	grantAtSource bool
}

// Validate reports a descriptive error for malformed topologies. Every
// topology passes through it (New calls it), so the engine may assume
// what it checks: every reference is in range, no two terminals attach
// at one port, every linked input port has exactly one upstream link,
// and no link enters or leaves a port a terminal attaches to — such a
// port is fed only by injection and only ejects.
func (t Topology) Validate() error {
	if len(t.Ports) == 0 {
		return fmt.Errorf("compose: no nodes")
	}
	base := make([]int, len(t.Ports)) // flat index of each node's port 0
	total := 0
	for n, p := range t.Ports {
		if p < 1 {
			return fmt.Errorf("compose: node %d has %d ports", n, p)
		}
		base[n] = total
		total += p
	}
	if len(t.Terminals) < 2 {
		return fmt.Errorf("compose: need at least 2 terminals")
	}
	inRange := func(r PortRef) bool {
		return r.Node >= 0 && r.Node < len(t.Ports) && r.Port >= 0 && r.Port < t.Ports[r.Node]
	}
	fed := make([]bool, total)   // input ports a terminal or a link already feeds
	attach := make([]int, total) // 1 + the terminal attached at each port, 0 for none
	for i, term := range t.Terminals {
		if !inRange(term) {
			return fmt.Errorf("compose: port reference %+v out of range", term)
		}
		// A transfer ejects at a port, not at a terminal, so a second
		// terminal here would be handed the first one's packets.
		flat := base[term.Node] + term.Port
		if attach[flat] != 0 {
			return fmt.Errorf("compose: terminals %d and %d both attach at %+v", attach[flat]-1, i, term)
		}
		fed[flat] = true
		attach[flat] = i + 1
	}
	// Walk the ports in order and look each one up, rather than ranging
	// over the map, so the first error reported does not depend on map
	// iteration order; a link leaving a port that does not exist is the
	// one the walk never meets.
	matched := 0
	for n, ports := range t.Ports {
		for p := 0; p < ports; p++ {
			from := PortRef{Node: n, Port: p}
			to, ok := t.Links[from]
			if !ok {
				continue
			}
			matched++
			if attach[base[n]+p] != 0 {
				return fmt.Errorf("compose: link %+v -> %+v leaves a terminal's port, which must eject", from, to)
			}
			if !inRange(to) {
				return fmt.Errorf("compose: port reference %+v out of range", to)
			}
			flat := base[to.Node] + to.Port
			if fed[flat] {
				return fmt.Errorf("compose: link %+v -> %+v enters an input port a terminal or an earlier link already feeds", from, to)
			}
			fed[flat] = true
		}
	}
	if matched != len(t.Links) {
		return fmt.Errorf("compose: %d of %d links leave a port reference out of range", len(t.Links)-matched, len(t.Links))
	}
	if t.Route == nil {
		return fmt.Errorf("compose: no routing function")
	}
	return nil
}

// routeTable calls Route once for every (node, terminal) pair — Route is
// pure, so the cycle loop reads the table and never the closure — and
// returns the results as one dense row of len(Terminals) entries per
// node. It rejects a result that is not one of the node's ports: no
// output would ever match it, so the packet would sit at the head of its
// buffer for ever, and with a fault schedule installed
// PortBase(node)+route would name another node's port.
func (t Topology) routeTable() ([]int32, error) {
	terms := len(t.Terminals)
	table := make([]int32, len(t.Ports)*terms)
	for n, ports := range t.Ports {
		for term := 0; term < terms; term++ {
			r := t.Route(n, term)
			if r < 0 || r >= ports {
				return nil, fmt.Errorf("compose: Route(%d, %d) = %d, outside node %d's %d ports", n, term, r, n, ports)
			}
			table[n*terms+term] = int32(r)
		}
	}
	return table, nil
}

// TwoLevelClos builds the canonical composition: `leaves` leaf switches,
// each with terminalsPerLeaf terminals and uplinks uplink ports, joined
// by one spine switch. Terminal IDs are leaf-major. Uplink selection is
// deterministic by destination terminal (dst % uplinks), so a flow's path
// is fixed — matching the paper's definition of a flow as packets on one
// route.
func TwoLevelClos(leaves, terminalsPerLeaf, uplinks int) (Topology, error) {
	if leaves < 2 || terminalsPerLeaf < 1 || uplinks < 1 {
		return Topology{}, fmt.Errorf("compose: clos(%d,%d,%d) is degenerate", leaves, terminalsPerLeaf, uplinks)
	}
	leafPorts := terminalsPerLeaf + uplinks
	spine := leaves // spine node index
	spinePorts := leaves * uplinks

	topo := Topology{
		Ports: make([]int, leaves+1),
		Links: make(map[PortRef]PortRef),
	}
	for l := 0; l < leaves; l++ {
		topo.Ports[l] = leafPorts
	}
	topo.Ports[spine] = spinePorts

	for l := 0; l < leaves; l++ {
		for t := 0; t < terminalsPerLeaf; t++ {
			topo.Terminals = append(topo.Terminals, PortRef{Node: l, Port: t})
		}
		for u := 0; u < uplinks; u++ {
			leafUp := PortRef{Node: l, Port: terminalsPerLeaf + u}
			spinePort := PortRef{Node: spine, Port: l*uplinks + u}
			// Bidirectional pair of unidirectional links.
			topo.Links[leafUp] = spinePort
			topo.Links[spinePort] = leafUp
		}
	}
	topo.Route = func(node, terminal int) int {
		dstLeaf := terminal / terminalsPerLeaf
		dstPort := terminal % terminalsPerLeaf
		if node == spine {
			// Downlink toward the destination leaf, spread by terminal.
			return dstLeaf*uplinks + dstPort%uplinks
		}
		if node == dstLeaf {
			return dstPort
		}
		// Uplink, picked deterministically by destination.
		return terminalsPerLeaf + terminal%uplinks
	}
	return topo, nil
}

// Port numbering of a Mesh node; package mesh names them for callers.
const (
	meshLocal = iota
	meshNorth // -y
	meshSouth // +y
	meshEast  // +x
	meshWest  // -x
	meshPorts
)

// Mesh builds a width x height 2D mesh, the paper's multi-hop baseline
// (§1-§2.1). Node y*width+x has five ports: terminal y*width+x attaches
// at port 0, and ports 1-4 face north (-y), south (+y), east (+x) and
// west (-x), linked to the neighbour's opposite port where the neighbour
// is in the grid. Routing is dimension-order: X first, then Y, then
// eject.
//
// A mesh differs from the Clos in two engine behaviours. Each flow has
// its own injection group, so a local port admits one packet per flow
// per cycle, not one per node; and GrantedAt is stamped only at the
// source node, where on the Clos a packet granted at cycle 0 is stamped
// again at the spine, zero being the engine's "not yet granted"
// sentinel. Both are frozen by the routed_sat digests in
// bench/expected.json, so neither side adopts the other's rule.
func Mesh(width, height int) (Topology, error) {
	if width < 1 || height < 1 || width*height < 2 {
		return Topology{}, fmt.Errorf("compose: %dx%d is not a mesh", width, height)
	}
	nodes := width * height
	topo := Topology{
		Ports:         make([]int, nodes),
		Links:         make(map[PortRef]PortRef),
		Terminals:     make([]PortRef, nodes),
		flowGroups:    true,
		grantAtSource: true,
	}
	for id := 0; id < nodes; id++ {
		topo.Ports[id] = meshPorts
		topo.Terminals[id] = PortRef{Node: id, Port: meshLocal}
		x, y := id%width, id/width
		if y > 0 {
			topo.Links[PortRef{Node: id, Port: meshNorth}] = PortRef{Node: id - width, Port: meshSouth}
		}
		if y < height-1 {
			topo.Links[PortRef{Node: id, Port: meshSouth}] = PortRef{Node: id + width, Port: meshNorth}
		}
		if x < width-1 {
			topo.Links[PortRef{Node: id, Port: meshEast}] = PortRef{Node: id + 1, Port: meshWest}
		}
		if x > 0 {
			topo.Links[PortRef{Node: id, Port: meshWest}] = PortRef{Node: id - 1, Port: meshEast}
		}
	}
	topo.Route = func(node, terminal int) int {
		x, y := node%width, node/width
		dx, dy := terminal%width, terminal/width
		switch {
		case dx > x:
			return meshEast
		case dx < x:
			return meshWest
		case dy > y:
			return meshSouth
		case dy < y:
			return meshNorth
		}
		return meshLocal
	}
	return topo, nil
}

// node is one crossbar in the composition. The hasNext/next pair is the
// Links map flattened into dense per-port tables so the per-cycle loops
// never hash a PortRef.
type node struct {
	id int
	// fbase is the flat id of the node's port 0 (see Network.portNode).
	fbase   int
	in      []*fabric.Buffer
	out     []*fabric.Transmission
	inBusy  []bool
	arbs    []arb.Arbiter
	next    []PortRef // downstream input for each output port...
	hasNext []bool    // ...valid where true; otherwise the port ejects
	// route[t] is Topology.Route(id, t), tabulated at construction.
	route []int32
	// groups[p] lists the injection groups (in Network.sources) that admit
	// into input port p: empty except at a terminal's port.
	groups [][]int
}

// push records a packet that entered input port of node nd: one more work
// item (a grant turns it into a transmission and the last flit into a
// cooldown, so the count stands until subWork), and if it is the new head
// of an idle input, an offer to re-derive.
//
//ssvc:hotpath
func (n *Network) push(nd *node, port int) {
	if n.work[nd.id]++; n.work[nd.id] == 1 {
		n.activePorts += len(nd.out)
	}
	if nd.in[port].Len() == 1 && !nd.inBusy[port] {
		n.offers.Mark(nd.fbase + port)
	}
}

// subWork records a completed work item (a cooldown served, a head
// discarded) at node nd.
//
//ssvc:hotpath
func (n *Network) subWork(nd *node) {
	if n.work[nd.id]--; n.work[nd.id] == 0 {
		n.activePorts -= len(nd.out)
	}
}

// Config sizes a composed network.
type Config struct {
	Topology    Topology
	BufferFlits int
	// NewArbiter builds the arbiter for (node, output port) over the
	// node's input ports; nil defaults to LRG everywhere. Every call
	// must return an independent instance: each output's arbiter holds
	// that output's state.
	NewArbiter func(nodeID, port, ports int) arb.Arbiter
}

// Network is the composed-switch simulator. Not safe for concurrent use;
// every cycle runs on the caller's goroutine (see DESIGN.md "No intra-run
// parallelism").
//
// The embedded fabric.Counters exposes the common utilization counters;
// Network implements fabric.Engine.
type Network struct {
	fabric.Counters
	fabric.Hooks

	cfg   Config
	nodes []*node
	// sources holds every flow and the groups whose admission is provably
	// barren (see admit). Unless the topology gives every flow a group of
	// its own (Topology.flowGroups), group t is terminal t's; otherwise
	// sources starts with no groups and AddFlow grows one per flow.
	sources *fabric.Sources
	now     noc.Cycle
	err     error // terminal invariant violation; freezes the engine

	faults   *faults.Injector
	portBase []int // flat fault-port id of each node's port 0
	// Kept by the injector (faults.New), zero without one: terminals, and
	// outputs by flat port id.
	deadIn, deadOut, stalled []uint64

	// offers holds every input's standing offer (see arbitrate) and clocks
	// ticks every arbiter, in node and port order, on their deadlines.
	offers *fabric.Offers
	clocks fabric.Clocks

	// Event-driven work tracking (see DESIGN.md "Event-driven idle
	// skipping"): work[id] counts node id's buffered packets, in-flight
	// transmissions, and pending cooldowns; activePorts counts the ports
	// of the nodes where it is nonzero.
	work        []int
	activePorts int
	// Event masks over the flat port ids, which are what a cycle walks:
	// flat id f is port f-fbase of node portNode[f], and its fault port.
	// tx: transmitting outputs; cool: outputs that owe the idle cycle
	// after a transfer.
	portNode []int32
	tx, cool []uint64
	// blocked: sleeping outputs, whose every standing request the
	// downstream buffer refused (see serve). up[f] is the flat id of the
	// output linked into input f, -1 at an attachment port: a grant that
	// pops input f wakes output up[f].
	blocked []uint64
	up      []int32

	// The completion calendar: transmitting output f finishes in cycle
	// due[f], and its bit stands in the wheel's slot for that cycle,
	// wheel[slot*words:(slot+1)*words] with slot = due[f] & wheelMask.
	// The wheel has a power-of-two number of slots above BufferFlits, so
	// the at most L <= BufferFlits cycles to a due cycle never wrap.
	wheel     []uint64
	wheelMask uint64
	due       []noc.Cycle
	// txs[f] is flat output f's one transmission: the node's out entry
	// points at it while f transmits and is nil otherwise.
	txs []fabric.Transmission

	// serves counts serve calls: a diagnostic of the host's work, in no
	// counter block or digest (like fabric.Offers.Evals).
	serves uint64

	arbReqs []arb.Request // scratch: requests handed to one arbitration

	totalPorts int

	afterRefresh func(now noc.Cycle) // test hook: the offers are current for this cycle
}

// Network is driven through the shared engine interface by the
// experiments layer.
var _ fabric.Engine = (*Network)(nil)

// New builds a composed network.
func New(cfg Config) (*Network, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	routes, err := cfg.Topology.routeTable()
	if err != nil {
		return nil, err
	}
	if cfg.BufferFlits < 1 {
		return nil, fmt.Errorf("compose: buffer capacity %d must be positive", cfg.BufferFlits)
	}
	newArb := cfg.NewArbiter
	if newArb == nil {
		newArb = func(_, _, ports int) arb.Arbiter { return arb.NewLRG(ports) }
	}
	net := &Network{cfg: cfg}
	net.portBase = make([]int, len(cfg.Topology.Ports))
	maxPorts := 0
	for id, p := range cfg.Topology.Ports {
		if p > maxPorts {
			maxPorts = p
		}
		net.portBase[id] = net.totalPorts
		net.totalPorts += p
		for port := 0; port < p; port++ {
			net.portNode = append(net.portNode, int32(id))
		}
	}
	net.arbReqs = make([]arb.Request, 0, maxPorts)
	net.work = make([]int, len(cfg.Topology.Ports))
	groups := 0
	if !cfg.Topology.flowGroups {
		groups = len(cfg.Topology.Terminals)
	}
	net.sources = fabric.NewSources(groups)
	net.offers = fabric.NewOffers(cfg.Topology.Ports, net.offerOf)
	words := arb.MaskWords(net.totalPorts)
	net.tx, net.cool, net.blocked = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	net.deadOut, net.stalled = make([]uint64, words), make([]uint64, words)
	net.deadIn = make([]uint64, arb.MaskWords(len(cfg.Topology.Terminals)))
	slots := 2
	for slots <= cfg.BufferFlits {
		slots *= 2
	}
	net.wheel, net.wheelMask = make([]uint64, slots*words), uint64(slots-1)
	net.due = make([]noc.Cycle, net.totalPorts)
	net.txs = make([]fabric.Transmission, net.totalPorts)
	net.up = make([]int32, net.totalPorts)
	for f := range net.up {
		net.up[f] = -1
	}
	terms := len(cfg.Topology.Terminals)
	for id, ports := range cfg.Topology.Ports {
		n := &node{
			id:      id,
			fbase:   net.portBase[id],
			in:      make([]*fabric.Buffer, ports),
			out:     make([]*fabric.Transmission, ports),
			inBusy:  make([]bool, ports),
			arbs:    make([]arb.Arbiter, ports),
			next:    make([]PortRef, ports),
			hasNext: make([]bool, ports),
			route:   routes[id*terms : (id+1)*terms],
			groups:  make([][]int, ports),
		}
		for p := 0; p < ports; p++ {
			n.in[p] = fabric.NewBuffer(cfg.BufferFlits)
			n.arbs[p] = newArb(id, p, ports)
			net.clocks.Add(n.arbs[p])
			n.next[p], n.hasNext[p] = cfg.Topology.Links[PortRef{Node: id, Port: p}]
			if n.hasNext[p] {
				net.up[net.portBase[n.next[p].Node]+n.next[p].Port] = int32(n.fbase + p)
			}
		}
		net.nodes = append(net.nodes, n)
	}
	if !cfg.Topology.flowGroups {
		for t, at := range cfg.Topology.Terminals {
			nd := net.nodes[at.Node]
			nd.groups[at.Port] = append(nd.groups[at.Port], t)
		}
	}
	if err := net.checkRoutes(); err != nil {
		return nil, err
	}
	return net, nil
}

// checkRoutes follows the tabulated route of every (node, terminal) pair
// over the links: it must leave the network at exactly
// Terminals[terminal] within len(nodes) hops. A transfer ejects
// wherever there is no link, so a route that ends at any other unlinked
// port would be counted as delivered there, and a route that takes more
// hops than there are nodes has revisited one and circulates for ever.
func (n *Network) checkRoutes() error {
	for _, from := range n.nodes {
		for term, at := range n.cfg.Topology.Terminals {
			nd, hops := from, 0
			for {
				out := int(nd.route[term])
				if !nd.hasNext[out] {
					if end := (PortRef{Node: nd.id, Port: out}); end != at {
						return fmt.Errorf("compose: the route from node %d to terminal %d leaves the network at %+v, not at the terminal's port %+v",
							from.id, term, end, at)
					}
					break
				}
				if hops++; hops > len(n.nodes) {
					return fmt.Errorf("compose: the route from node %d to terminal %d has not ejected after %d hops: it cycles",
						from.id, term, len(n.nodes))
				}
				nd = n.nodes[nd.next[out].Node]
			}
		}
	}
	return nil
}

// recomputeActive rebuilds the work counts and activePorts from first
// principles after fault handling has flushed state wholesale, and
// forgets every barren admission, standing offer (every input is marked)
// and sleeping output: a fail-stop empties buffers, frees reservations
// and changes which ports are dead. Cold path.
func (n *Network) recomputeActive() {
	n.sources.ForgetSkips()
	n.offers.Reset()
	arb.MaskZero(n.blocked)
	n.activePorts = 0
	for _, nd := range n.nodes {
		n.work[nd.id] = 0
		for port := range nd.in {
			n.work[nd.id] += nd.in[port].Len()
			if nd.out[port] != nil {
				n.work[nd.id]++
			}
			if arb.MaskHas(n.cool, nd.fbase+port) {
				n.work[nd.id]++
			}
		}
		if n.work[nd.id] > 0 {
			n.activePorts += len(nd.out)
		}
	}
}

// Terminals returns the number of attachable endpoints.
func (n *Network) Terminals() int { return len(n.cfg.Topology.Terminals) }

// Err returns the terminal error that froze the network, or nil.
func (n *Network) Err() error { return n.err }

// fail records the first invariant violation and freezes the engine.
func (n *Network) fail(err error) {
	if n.err == nil {
		n.err = err
	}
}

// SetFaults installs a fault-injection schedule; call before the first
// Step. Port addressing: an Input fail-stop port is a terminal ID (its
// injection dies and its queued packets at the attachment port are
// flushed); stall and output fail-stop ports are flattened (node, output
// port) ids — node n's port p is PortBase(n)+p. A packet whose static
// route reaches a dead port is discarded at that node. There is no
// per-flow re-reservation in degraded mode: shared crosspoints cannot
// tell surviving flows apart (§4.4). The cycle stays the same masked walk.
func (n *Network) SetFaults(cfg faults.Config) error {
	if n.now != 0 {
		return fmt.Errorf("compose: SetFaults after cycle 0 (now=%d)", n.now)
	}
	if err := cfg.Validate(n.Terminals(), n.totalPorts); err != nil {
		return err
	}
	n.faults = faults.New(cfg, n.deadIn, n.deadOut, n.stalled)
	return nil
}

// FaultTotals returns the injector's fault counters (zero if no schedule
// is installed).
func (n *Network) FaultTotals() faults.Counters { return n.faults.Totals() }

// PortBase returns the flat fault-port id of node's port 0 (see
// SetFaults).
func (n *Network) PortBase(node int) int { return n.portBase[node] }

// Now returns the current cycle.
func (n *Network) Now() noc.Cycle { return n.now }

// AddFlow attaches a flow between terminals (Spec.Src/Dst are terminal
// IDs). Flows sharing a source terminal share one injection group, or on a
// topology with per-flow groups each get their own; either way flows at
// one terminal keep their AddFlow order.
func (n *Network) AddFlow(f traffic.Flow) error {
	if f.Spec.Src < 0 || f.Spec.Src >= n.Terminals() || f.Spec.Dst < 0 || f.Spec.Dst >= n.Terminals() {
		return fmt.Errorf("compose: flow %d->%d outside %d terminals", f.Spec.Src, f.Spec.Dst, n.Terminals())
	}
	if f.Spec.Src == f.Spec.Dst {
		return fmt.Errorf("compose: flow %d->%d routes to itself", f.Spec.Src, f.Spec.Dst)
	}
	if _, ok := f.Gen.(traffic.Scheduler); !ok {
		return fmt.Errorf("compose: flow %d->%d has no scheduling generator", f.Spec.Src, f.Spec.Dst)
	}
	// The spec rules switchsim's FlowSpec.Validate applies, less the
	// reservation rate: a routed flow reserves nothing. A packet of no
	// flits would also finish its transmission in the cycle that grants
	// it, a cycle the completion calendar has already drained.
	if !f.Spec.Class.Valid() {
		return fmt.Errorf("compose: flow %d->%d: invalid class %v", f.Spec.Src, f.Spec.Dst, f.Spec.Class)
	}
	if f.Spec.PacketLength < 1 {
		return fmt.Errorf("compose: flow %d->%d: packet length %d must be positive", f.Spec.Src, f.Spec.Dst, f.Spec.PacketLength)
	}
	if f.Spec.PacketLength > n.cfg.BufferFlits {
		return fmt.Errorf("compose: flow %d->%d: %d-flit packets can never enter a %d-flit buffer",
			f.Spec.Src, f.Spec.Dst, f.Spec.PacketLength, n.cfg.BufferFlits)
	}
	at := n.cfg.Topology.Terminals[f.Spec.Src]
	nd := n.nodes[at.Node]
	if !n.cfg.Topology.flowGroups {
		n.sources.Add(f, f.Spec.Src)
		n.sources.Unskip(f.Spec.Src) // a grown group gets a fresh attempt
		return nil
	}
	// A group of the flow's own (the skip mask grows with it), and the
	// attachment port's list of groups to unskip.
	n.sources.AddOwnGroup(f)
	nd.groups[at.Port] = append(nd.groups[at.Port], n.sources.Groups()-1)
	return nil
}

// Step advances one cycle. After a terminal error, Step is a no-op.
//
//ssvc:hotpath
func (n *Network) Step() {
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
	n.Injected += n.sources.Generate(now)
	n.admit(now)
	n.transfer(now)
	n.arbitrate(now)
	n.clocks.Tick(now)
	n.now++
}

// Run advances the given number of cycles, stopping early if the engine
// fails sick.
func (n *Network) Run(cycles noc.Cycle) {
	for i := noc.Cycle(0); i < cycles; i++ {
		if n.err != nil {
			return
		}
		n.Step()
	}
}

// admit admits at most one packet per injection group into its
// terminal's attachment port, rotating across the group's flows so that
// flows sharing a group share the injection port fairly.
//
// The walk visits the groups with a queued packet that the skip mask
// (fabric.Sources) does not hold. An attempt that moves nothing skips the
// group, and the bit stays set until something could change the outcome:
// a flow queue of the group gains a head (Sources clears it), a flow
// joins it (AddFlow), the buffer it admits into pops a packet (serve: an
// attachment port is never link-fed, so it holds no reservation and a
// pop is the only way its free space grows), or a fail-stop rewrites
// buffers and dead terminals wholesale (recomputeActive). A dead
// terminal's group always hands its head over, so it is never masked.
// SkippedAdmits counts the groups with an empty queue, whatever the mask
// says.
//
//ssvc:hotpath
func (n *Network) admit(now noc.Cycle) {
	try := func(p *noc.Packet) bool {
		// A fail-stopped terminal generates into a dead attachment port:
		// accept and discard so the source queue cannot grow unbounded.
		if arb.MaskHas(n.deadIn, p.Src) {
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
	// Pops clear nonempty bits in place; the per-word snapshot keeps this
	// cycle's scan set fixed.
	queued, skip := 0, n.sources.SkipMask()
	for w, mm := range n.sources.NonEmptyMask() {
		queued += bits.OnesCount64(mm)
		for mm &^= skip[w]; mm != 0; mm &= mm - 1 {
			g := w<<6 + bits.TrailingZeros64(mm)
			if n.sources.AdmitGroup(g, try) == nil {
				n.sources.Skip(g)
			}
		}
	}
	n.SkippedAdmits += uint64(n.sources.Groups() - queued)
}

// complete tears down the channel at flat id f of node nd: the input may
// offer again and the output owes its cooldown cycle, the work item the
// transmission becomes, so nd's work count stands.
//
//ssvc:hotpath
func (n *Network) complete(nd *node, f int) {
	port := f - nd.fbase
	tx := nd.out[port]
	nd.inBusy[tx.Input] = false
	n.offers.Mark(nd.fbase + tx.Input)
	nd.out[port], tx.Pkt = nil, nil
	arb.MaskClear(n.tx, f)
	arb.MaskSet(n.cool, f)
}

// dropPkt counts and releases a packet discarded by a fault.
func (n *Network) dropPkt(p *noc.Packet) {
	n.Dropped++
	n.Drop(p)
}

// applyFailStop flushes state referencing a port that just died. Input
// fail-stops address terminal IDs; output fail-stops address flattened
// (node, port) ids. Queued packets routing onto a dead port are
// discarded lazily when they surface at a node's head (see arbitrate).
func (n *Network) applyFailStop(f faults.FailStop) {
	if f.Input {
		at := n.cfg.Topology.Terminals[f.Port]
		nd := n.nodes[at.Node]
		nd.in[at.Port].DropWhere(func(*noc.Packet) bool { return true }, n.dropPkt)
		for out := range nd.out {
			if tx := nd.out[out]; tx != nil && tx.Input == at.Port {
				n.abortTx(nd, out)
			}
		}
		nd.inBusy[at.Port] = false
		return
	}
	nd := n.nodes[n.portNode[f.Port]]
	if port := f.Port - nd.fbase; nd.out[port] != nil {
		n.abortTx(nd, port)
	}
}

// abortTx kills an in-flight transfer on one node output, releasing its
// downstream reservation and dropping the packet.
func (n *Network) abortTx(nd *node, out int) {
	tx := nd.out[out]
	pkt, from := tx.Pkt, tx.Input
	nd.inBusy[from] = false
	nd.out[out], tx.Pkt = nil, nil
	arb.MaskClear(n.tx, nd.fbase+out)
	arb.MaskClear(n.slot(n.due[nd.fbase+out]), nd.fbase+out)
	n.unreserve(nd, out, pkt.Length)
	n.dropPkt(pkt)
}

// unreserve returns the downstream space a transmission on output out of
// nd had claimed, and wakes the output that feeds that buffer.
func (n *Network) unreserve(nd *node, out, length int) {
	if nd.hasNext[out] {
		next := nd.next[out]
		n.nodes[next.Node].in[next.Port].Unreserve(length)
		arb.MaskClear(n.blocked, nd.fbase+out)
	}
}

// slot returns the completion calendar's mask for cycle c.
//
//ssvc:hotpath
func (n *Network) slot(c noc.Cycle) []uint64 {
	words := len(n.tx)
	s := int(c.Uint()&n.wheelMask) * words
	return n.wheel[s : s+words]
}

// file starts the completion calendar entry of the output at flat id f,
// granted a packet of length flits in cycle now: its last flit moves in
// cycle now+length.
//
//ssvc:hotpath
func (n *Network) file(f int, now noc.Cycle, length int) {
	n.due[f] = now + noc.CycleOf(uint64(length))
	arb.MaskSet(n.slot(n.due[f]), f)
}

// transfer moves one flit on every transmitting output, then finishes
// the transmissions whose last flit that was, the outputs filed in the
// calendar's slot for now, in ascending node and port order. Nothing is
// filed in that slot meanwhile (a grant files at least one cycle ahead,
// and no grant runs here), so draining it word by word is exact. A
// stalled transmitting output moves nothing, and its completion moves one
// slot later.
//
//ssvc:hotpath
func (n *Network) transfer(now noc.Cycle) {
	for w, mm := range n.tx {
		n.DataCycles += uint64(bits.OnesCount64(mm &^ n.stalled[w]))
		for mm &= n.stalled[w]; mm != 0; mm &= mm - 1 {
			f := w<<6 + bits.TrailingZeros64(mm)
			arb.MaskClear(n.slot(n.due[f]), f)
			n.file(f, n.due[f], 1)
		}
	}
	slot := n.slot(now)
	for w, mm := range slot {
		slot[w] = 0
		for ; mm != 0; mm &= mm - 1 {
			n.finish(w<<6+bits.TrailingZeros64(mm), now)
		}
	}
}

// finish ends the transmission at flat id f, whose last flit moved in
// cycle now: the packet enters the downstream buffer or is delivered.
//
//ssvc:hotpath
func (n *Network) finish(f int, now noc.Cycle) {
	nd := n.nodes[n.portNode[f]]
	port := f - nd.fbase
	tx := nd.out[port]
	pkt, from := tx.Pkt, tx.Input
	n.complete(nd, f)
	// Receiver-side modeled CRC check (see internal/faults): a
	// corrupted hop is NACKed back to the upstream queue head
	// (reservation released) or dropped once out of retries.
	if n.faults != nil && n.faults.CorruptArrival(pkt) {
		n.unreserve(nd, port, pkt.Length)
		if n.faults.Retry(now, pkt) {
			nd.in[from].PushFront(pkt)
			n.push(nd, from)
		} else {
			n.dropPkt(pkt)
		}
		return
	}
	if nd.hasNext[port] {
		next := nd.next[port]
		dst := n.nodes[next.Node]
		dst.in[next.Port].Commit(pkt)
		n.push(dst, next.Port)
		return
	}
	// No link: this port is a terminal ejection.
	pkt.DeliveredAt = now
	n.Delivered++
	n.Deliver(pkt)
}

// arbitrate re-derives the marked offers (fabric.Offers), then serves
// the outputs leaving a cooldown or holding an offer, less the ones
// transmitting and the stalled ones, in ascending node and port order; a
// sleeping one (see serve) only counts its idle cycle, a dead one only
// discards what is offered to it. The rest are idle and counted unvisited,
// but for the halted (dead or stalled) ones, idle or skipped in no count.
// The refresh runs after transfer, so an input freed this cycle can be
// granted this cycle. No input is marked here and serve touches only its
// own output's bits, so the per-word snapshots are this cycle's sets.
//
//ssvc:hotpath
func (n *Network) arbitrate(now noc.Cycle) {
	n.offers.Refresh(n.offers.Dirty(), now)
	if n.afterRefresh != nil {
		n.afterRefresh(now)
	}
	offered := n.offers.Offered()
	idle, skipped := n.totalPorts, n.totalPorts-n.activePorts
	for w := range n.tx {
		halted := n.deadOut[w] | n.stalled[w]
		idle -= bits.OnesCount64(n.cool[w] | offered[w] | n.tx[w] | halted)
		// A halted port of a node with no work is no skipped idle cycle.
		for ; halted != 0; halted &= halted - 1 {
			if n.work[n.portNode[w<<6+bits.TrailingZeros64(halted)]] == 0 {
				skipped--
			}
		}
	}
	for w := range n.tx {
		visit := n.cool[w] | offered[w]
		for visit &^= n.tx[w] | n.stalled[w]&^n.deadOut[w]; visit != 0; visit &= visit - 1 {
			if n.err != nil {
				return
			}
			// A sleeping output counts the idle cycle its refused visit
			// would have. The bit is read as the walk reaches it: a
			// grant earlier in the walk may have woken it.
			if n.blocked[w]&(visit&-visit) != 0 {
				n.IdleCycles++
				continue
			}
			n.serve(w<<6+bits.TrailingZeros64(visit), now)
		}
	}
	n.IdleCycles += uint64(idle)
	n.SkippedOutputs += uint64(skipped)
}

// offerOf is the network's one question to its standing offers: what
// the input at flat id f offers at cycle now. An idle input offers its
// head, unless the head sits out a retransmission backoff, to the output
// the head routes to. A held head marks f, so its offer is re-derived
// every cycle until the deadline.
//
//ssvc:hotpath
func (n *Network) offerOf(f int, now noc.Cycle) (int, arb.Request, bool) {
	nd := n.nodes[n.portNode[f]]
	port := f - nd.fbase
	if nd.inBusy[port] {
		return 0, arb.Request{}, false
	}
	p := nd.in[port].Head()
	if p == nil {
		return 0, arb.Request{}, false
	}
	if p.HoldUntil > now {
		n.offers.Mark(f)
		return 0, arb.Request{}, false
	}
	out := nd.fbase + int(nd.route[p.Dst])
	arb.MaskClear(n.blocked, out) // a new request may fit where the standing ones did not
	return out, arb.Request{Input: port, Class: p.Class, Packet: p}, true
}

// serve spends the cycle of the idle output at flat id f: it leaves
// its cooldown, or arbitrates among its standing offers, less those the
// downstream buffer has no room for. An output whose every offer that
// buffer refuses falls asleep (blocked) until the buffer frees space (a
// pop, an unreserve, a fail-stop's flush) or a new offer is derived at
// it.
//
//ssvc:hotpath
func (n *Network) serve(f int, now noc.Cycle) {
	n.serves++
	nd := n.nodes[n.portNode[f]]
	out := f - nd.fbase
	if arb.MaskHas(n.deadOut, f) {
		// The static route dead-ends here: discard what is offered, so
		// upstream buffers keep draining toward the fault point, but only
		// now, after the lower nodes' arbitrations. Each pop wakes the
		// output feeding that buffer and brings up the next head.
		for _, r := range n.offers.Requests(f, n.arbReqs[:0]) {
			n.offers.Withdraw(nd.fbase + r.Input)
			n.offers.Mark(nd.fbase + r.Input)
			n.dropPkt(nd.in[r.Input].Pop())
			n.subWork(nd)
			n.sources.Unskip(nd.groups[r.Input]...)
			if u := n.up[nd.fbase+r.Input]; u >= 0 {
				arb.MaskClear(n.blocked, int(u))
			}
		}
		return
	}
	if arb.MaskHas(n.cool, f) {
		arb.MaskClear(n.cool, f)
		n.subWork(nd)
		return
	}
	var down *fabric.Buffer
	if nd.hasNext[out] {
		next := nd.next[out]
		down = n.nodes[next.Node].in[next.Port]
	}
	reqs := n.offers.Requests(f, n.arbReqs[:0])
	if down != nil {
		kept := reqs[:0]
		for _, r := range reqs {
			if down.CanAccept(r.Packet.Length) {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			arb.MaskSet(n.blocked, f)
		}
		reqs = kept
	}
	if len(reqs) == 0 {
		n.IdleCycles++
		return
	}
	n.ArbCycles++
	w := nd.arbs[out].Arbitrate(now, reqs)
	if w < 0 {
		return
	}
	req := reqs[w]
	p := nd.in[req.Input].Pop()
	if p != req.Packet {
		//ssvc:coldpath the engine freezes sick here, so this error path may allocate
		head := "empty queue"
		if p != nil {
			head = fmt.Sprintf("packet %d", p.ID)
		}
		n.fail(fmt.Errorf("compose: cycle %d: node %d granted packet %d but head is %s",
			now, nd.id, req.Packet.ID, head))
		return
	}
	if u := n.up[nd.fbase+req.Input]; u >= 0 {
		arb.MaskClear(n.blocked, int(u)) // the pop frees space in u's downstream buffer
	}
	// Zero doubles as "not yet granted", so without grantAtSource a
	// packet granted at cycle 0 is stamped again at its next node.
	if p.GrantedAt == 0 && (!n.cfg.Topology.grantAtSource || nd.id == n.cfg.Topology.Terminals[p.Src].Node) {
		p.GrantedAt = now
	}
	if down != nil {
		down.Reserve(p.Length)
	}
	// The granted head leaves the buffer but becomes an in-flight
	// transmission, so nd's work count is unchanged. The space it
	// frees can unblock the groups injecting at that port.
	n.sources.Unskip(nd.groups[req.Input]...)
	n.offers.Withdraw(nd.fbase + req.Input)
	nd.inBusy[req.Input] = true
	nd.out[out] = n.txs[f].Start(p, req.Input)
	arb.MaskSet(n.tx, f)
	n.file(f, now, p.Length)
	nd.arbs[out].Granted(now, req)
}
