package compose

import (
	"fmt"
	"strings"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// TestMalformedTopologiesRejected feeds New one malformed topology per
// rule; each starts from a valid two-leaf Clos (leaves 0 and 1 with two
// terminals and one uplink each, spine 2).
func TestMalformedTopologiesRejected(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Topology)
		want   string
	}{
		{"linkFromMissingPort", func(tp *Topology) {
			tp.Links[PortRef{Node: 0, Port: 9}] = PortRef{Node: 2, Port: 0}
		}, "leave a port reference out of range"},
		{"linkToMissingPort", func(tp *Topology) {
			tp.Links[PortRef{Node: 0, Port: 2}] = PortRef{Node: 2, Port: 7}
		}, "out of range"},
		{"twoLinksIntoOneInput", func(tp *Topology) {
			tp.Links[PortRef{Node: 1, Port: 2}] = PortRef{Node: 2, Port: 0}
		}, "already feeds"},
		{"linkIntoAttachmentPort", func(tp *Topology) {
			tp.Links[PortRef{Node: 2, Port: 0}] = PortRef{Node: 0, Port: 1}
		}, "already feeds"},
		{"routeOutsideNode", func(tp *Topology) {
			route := tp.Route
			tp.Route = func(node, terminal int) int {
				if node == 1 && terminal == 0 {
					return 3 // leaf 1 has ports 0-2
				}
				return route(node, terminal)
			}
		}, "Route(1, 0) = 3"},
		// The port would forward instead of ejecting, and terminal 1's
		// packets would circulate for ever.
		{"linkFromAttachmentPort", func(tp *Topology) {
			tp.Ports[2] = 3
			tp.Links[PortRef{Node: 0, Port: 1}] = PortRef{Node: 2, Port: 2}
		}, "leaves a terminal's port"},
		// A transfer ejects wherever there is no link, so these two would
		// count terminal 0's packets as delivered at the wrong port.
		{"routeEndsAtAnotherTerminal", func(tp *Topology) {
			route := tp.Route
			tp.Route = func(node, terminal int) int {
				if node == 0 && terminal == 0 {
					return 1
				}
				return route(node, terminal)
			}
		}, "terminal 0 leaves the network at {Node:0 Port:1}"},
		{"routeEndsAtUnlinkedPort", func(tp *Topology) {
			tp.Ports[0] = 4
			route := tp.Route
			tp.Route = func(node, terminal int) int {
				if node == 0 && terminal == 0 {
					return 3
				}
				return route(node, terminal)
			}
		}, "terminal 0 leaves the network at {Node:0 Port:3}"},
		// Route is consistent with the shared port, so only Validate can
		// tell: terminal 1's packets would eject at terminal 0's port
		// and count as delivered.
		{"twoTerminalsAtOnePort", func(tp *Topology) {
			tp.Terminals[1] = tp.Terminals[0]
			route := tp.Route
			tp.Route = func(node, terminal int) int {
				if node == 0 && terminal == 1 {
					return 0
				}
				return route(node, terminal)
			}
		}, "terminals 0 and 1 both attach at {Node:0 Port:0}"},
		{"routingCycle", func(tp *Topology) {
			route := tp.Route
			tp.Route = func(node, terminal int) int {
				if node == 2 && terminal == 2 {
					return 0 // the spine sends leaf 1's terminal back down to leaf 0
				}
				return route(node, terminal)
			}
		}, "terminal 2 has not ejected after 3 hops"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := TwoLevelClos(2, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&topo)
			_, err = New(Config{Topology: topo, BufferFlits: 8})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestMeshTopology checks the constructor, not the engine: the wiring is
// a grid of bidirectional links and Route is minimal dimension-order.
func TestMeshTopology(t *testing.T) {
	for _, dim := range [][2]int{{1, 2}, {4, 4}, {3, 5}} {
		w, h := dim[0], dim[1]
		t.Run(fmt.Sprintf("%dx%d", w, h), func(t *testing.T) {
			topo, err := Mesh(w, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.Validate(); err != nil {
				t.Fatal(err)
			}
			if want := 2 * (w*(h-1) + h*(w-1)); len(topo.Links) != want {
				t.Fatalf("links = %d, want %d", len(topo.Links), want)
			}
			for from, to := range topo.Links {
				if topo.Links[to] != from {
					t.Fatalf("link %+v -> %+v has no reverse", from, to)
				}
			}
			for src := 0; src < w*h; src++ {
				if topo.Terminals[src] != (PortRef{Node: src, Port: meshLocal}) {
					t.Fatalf("terminal %d attaches at %+v", src, topo.Terminals[src])
				}
				for dst := 0; dst < w*h; dst++ {
					node, hops, turned := src, 0, false
					for {
						out := topo.Route(node, dst)
						if out == meshLocal {
							break
						}
						if out == meshNorth || out == meshSouth {
							turned = true
						} else if turned {
							t.Fatalf("%d->%d moves in X after Y at node %d", src, dst, node)
						}
						next, ok := topo.Links[PortRef{Node: node, Port: out}]
						if !ok {
							t.Fatalf("%d->%d routed off the grid at node %d port %d", src, dst, node, out)
						}
						node = next.Node
						hops++
					}
					want := abs(src%w-dst%w) + abs(src/w-dst/w)
					if node != dst || hops != want {
						t.Fatalf("%d->%d ejects at node %d after %d hops, want %d", src, dst, node, hops, want)
					}
				}
			}
		})
	}
	if _, err := Mesh(1, 1); err == nil {
		t.Error("1x1 mesh accepted")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestTopologyProperties pins the two behaviours in which the mesh and
// the Clos differ inside the engine. Neither is a choice this package
// would make twice — one rule each would do — but the routed_sat digests
// in bench/expected.json freeze both engines packet for packet, so each
// wiring keeps the rule it was pinned with.
func TestTopologyProperties(t *testing.T) {
	mesh, err := Mesh(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	clos, err := TwoLevelClos(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		topo Topology
		// admits is how many packets terminal 0 admits in one cycle from
		// two backlogged flows: one per flow on the mesh, one per
		// terminal on the Clos.
		admits uint64
		// restamped says a packet granted at its source in cycle 0 has
		// GrantedAt overwritten at the next node: zero is the "not yet
		// granted" sentinel, and only the mesh also asks that the
		// granting node be the source.
		restamped bool
	}{
		{"mesh", mesh, 2, false},
		{"clos", clos, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 2}

			n, err := New(Config{Topology: tc.topo, BufferFlits: 16})
			if err != nil {
				t.Fatal(err)
			}
			var seq traffic.Sequence
			addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 4))
			addFlow(t, n, spec, traffic.NewBacklogged(&seq, spec, 4))
			n.Step()
			if n.Admitted != tc.admits {
				t.Errorf("admitted %d packets in one cycle, want %d", n.Admitted, tc.admits)
			}

			n, err = New(Config{Topology: tc.topo, BufferFlits: 16})
			if err != nil {
				t.Fatal(err)
			}
			var traceSeq traffic.Sequence
			addFlow(t, n, spec, traffic.NewTrace(&traceSeq, spec, []noc.Cycle{0}))
			var got *noc.Packet
			n.OnDeliver(func(p *noc.Packet) { got = p })
			n.Run(50)
			if got == nil {
				t.Fatal("packet not delivered")
			}
			if got.EnqueuedAt != 0 {
				t.Fatalf("EnqueuedAt = %d: the packet did not reach its source node in cycle 0", got.EnqueuedAt)
			}
			if restamped := got.GrantedAt != 0; restamped != tc.restamped {
				t.Errorf("GrantedAt = %d, restamped = %v, want %v", got.GrantedAt, restamped, tc.restamped)
			}
		})
	}
}
