// Package mesh is the 2D-mesh network-on-chip used as the multi-hop
// counterpoint to the paper's single-stage switch.
//
// The paper's motivation (§1-§2.1): implementing differentiated bandwidth
// and latency services in a multi-hop NoC is hard — per-flow state would
// be needed at every router — whereas a single high-radix crossbar can
// hold all QoS state at its crosspoints. The honest baseline for that
// argument is a mesh of input-buffered routers with dimension-order (XY)
// routing, whole-packet (virtual cut-through) switching with downstream
// buffer reservation, a one-cycle arbitration overhead per hop (matching
// the switch model), and a pluggable per-port arbiter. Router arbiters
// see input *ports*, not flows, so even a weighted scheme cannot enforce
// an individual flow's end-to-end reservation once flows merge — which is
// exactly what the motivation experiment demonstrates.
//
// That machine is the routed-network engine of package compose on the
// compose.Mesh wiring; this package only sizes it by width and height and
// names its ports.
package mesh

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/compose"
)

// Port indexes a router's five ports, in compose.Mesh's numbering.
type Port int

// Router ports: the local terminal plus the four mesh directions.
const (
	Local Port = iota
	North      // -y
	South      // +y
	East       // +x
	West       // -x
	numPorts
)

// String returns the port name.
func (p Port) String() string {
	switch p {
	case Local:
		return "local"
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	}
	return fmt.Sprintf("Port(%d)", int(p))
}

// Config describes the mesh geometry and its routers.
type Config struct {
	// Width and Height give a Width x Height mesh; node IDs are
	// y*Width + x, used as packet sources and destinations.
	Width, Height int
	// BufferFlits is each router input port's buffer capacity.
	BufferFlits int
	// NewArbiter builds one arbiter per router output port over the
	// five input ports; nil defaults to LRG. Every call must return an
	// independent instance: each output's arbiter holds that output's
	// state.
	NewArbiter func() arb.Arbiter

	// Shards is a stub kept for the benchmark harness under bench/, which
	// sets it: the mesh runs one serial cycle (DESIGN.md "No intra-run
	// parallelism"), so Validate accepts 0 and 1 and refuses anything
	// else. It goes when the harness stops setting it.
	Shards int
}

// Validate reports a descriptive error for malformed configurations.
func (c Config) Validate() error {
	if c.Width < 1 || c.Height < 1 || c.Width*c.Height < 2 {
		return fmt.Errorf("mesh: %dx%d is not a mesh", c.Width, c.Height)
	}
	if c.BufferFlits < 1 {
		return fmt.Errorf("mesh: buffer capacity %d must be positive", c.BufferFlits)
	}
	if c.Shards < 0 || c.Shards > 1 {
		return fmt.Errorf("mesh: Shards %d: the mesh runs one serial cycle, so Shards must be 0 or 1", c.Shards)
	}
	return nil
}

// Mesh is a compose.Network wired as a mesh: Step, Run, AddFlow (Src and
// Dst are node IDs), SetFaults, the counters and the delivery hooks are
// the network's own.
//
// Fault-schedule addressing (compose.Network.SetFaults): an Input
// fail-stop port is a node ID; stall and output fail-stop ports are
// flattened router link ids, router*5 + direction (see the Port
// constants), which is PortBase(router) + direction since every router
// has five ports. A packet whose XY route reaches a dead link is
// discarded at that router — the mesh has no per-flow state to re-derive,
// so there is no degraded-mode re-reservation here (that asymmetry
// versus the crossbar is the paper's architectural point).
type Mesh struct {
	*compose.Network
	width, height int
}

// New builds a mesh.
func New(cfg Config) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := compose.Mesh(cfg.Width, cfg.Height)
	if err != nil {
		return nil, err
	}
	var newArb func(node, port, ports int) arb.Arbiter
	if cfg.NewArbiter != nil {
		newArb = func(_, _, _ int) arb.Arbiter { return cfg.NewArbiter() }
	}
	net, err := compose.New(compose.Config{
		Topology:    topo,
		BufferFlits: cfg.BufferFlits,
		NewArbiter:  newArb,
	})
	if err != nil {
		return nil, err
	}
	return &Mesh{Network: net, width: cfg.Width, height: cfg.Height}, nil
}

// Nodes returns the number of terminals (Width * Height).
func (m *Mesh) Nodes() int { return m.width * m.height }
