package main

import (
	"fmt"
	"time"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/compose"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/mesh"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

const (
	// simSlices cuts the timed run, one continuing simulation, into equal
	// slices; each is one operation, checked by its digest.
	simSlices = 5
	xbarRadix = 64
)

// FNV-1a, as internal/ctlplane digests its delivery trace.
const (
	fnvSeed  = 14695981039346656037
	fnvPrime = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// simEngine is one engine under test with the harness state a researcher's
// run hangs off it: the packet free list, a statistics collector, and the
// delivery-order hash the correctness gate pins.
type simEngine struct {
	layer    string // switchsim, mesh or compose
	eng      fabric.Engine
	seq      *traffic.Sequence
	col      *stats.Collector
	order    uint64
	genB     *boundary // nil when untraced
	deliverB *boundary
}

func newSimEngine(layer string, eng fabric.Engine, tr *tracer) *simEngine {
	e := &simEngine{layer: layer, eng: eng, seq: new(traffic.Sequence),
		col: stats.NewCollector(0, 0), order: fnvSeed}
	if tr != nil {
		e.genB = tr.boundary("traffic.Tick", "traffic", sampleGen)
		e.deliverB = tr.boundary("stats.Deliver", "stats", sampleDeliver)
	}
	eng.OnDeliver(e.deliver)
	eng.OnRelease(e.seq.Recycle)
	return e
}

// deliver hashes the delivery in order and feeds the collector, as the
// experiments layer does on every run.
func (e *simEngine) deliver(p *noc.Packet) {
	h := mix(e.order, p.ID)
	h = mix(h, uint64(p.Src)<<32|uint64(p.Dst)<<8|uint64(p.Class))
	h = mix(h, p.CreatedAt.Uint())
	h = mix(h, p.GrantedAt.Uint())
	e.order = mix(h, p.DeliveredAt.Uint())
	if e.deliverB == nil || !e.deliverB.sample() {
		e.col.OnDeliver(p)
		return
	}
	t0 := time.Now()
	e.col.OnDeliver(p)
	e.deliverB.record(t0, 1)
}

func (e *simEngine) add(spec noc.FlowSpec, gen traffic.Generator) error {
	return e.eng.AddFlow(traffic.Flow{Spec: spec, Gen: wrapGenerator(e.genB, gen)})
}

func (e *simEngine) err() error {
	if r, ok := e.eng.(fabric.ErrorReporter); ok {
		return r.Err()
	}
	return nil
}

// simRun is a built sim workload: its engines, each run for the same
// number of cycles per slice, and the warm-up that settles their pools.
type simRun struct {
	engines []*simEngine
	warm    noc.Cycle
}

// simSize sizes a sim workload. cycles is what each engine simulates in a
// 10-second timed window on the reference host. chunk is the length of one
// Run call, the sample the rates are taken over and the child span of a
// traced run: about 4 ms of host time, so that a run has two thousand of
// them and its 99th percentile leaves twenty beyond it.
type simSize struct {
	build         func(seed uint64, tr *tracer, shards int) (*simRun, error)
	cycles, chunk uint64
}

// digest covers every engine's delivered count, counter block and
// delivery-order hash, cumulatively since construction.
func (r *simRun) digest() string {
	h := uint64(fnvSeed)
	for _, e := range r.engines {
		c := e.eng.Totals()
		for _, v := range [...]uint64{c.Injected, c.Admitted, c.Delivered, c.Dropped,
			c.ArbCycles, c.IdleCycles, c.DataCycles, c.SkippedOutputs, c.SkippedAdmits, e.order} {
			h = mix(h, v)
		}
	}
	return fmt.Sprintf("%016x", h)
}

func (r *simRun) delivered() uint64 {
	var n uint64
	for _, e := range r.engines {
		n += e.eng.Totals().Delivered
	}
	return n
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(rng *traffic.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// xbarSwitch builds the radix-64 crossbar both xbar workloads run on:
// core.SSVC at every output (12 counter bits, 4 significant,
// SubtractRealTime, GL lane on), 16-flit buffers, Vticks from the specs.
func xbarSwitch(specs []noc.FlowSpec, ab *arbBounds, shards int) (*switchsim.Switch, error) {
	vt := make([][]core.VTime, xbarRadix)
	for o := range vt {
		vt[o] = make([]core.VTime, xbarRadix)
	}
	for _, s := range specs {
		if s.Class == noc.GuaranteedBandwidth {
			vt[s.Dst][s.Src] = s.Vtick()
		}
	}
	return switchsim.New(switchsim.Config{
		Radix: xbarRadix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16, Shards: shards,
	}, func(o int) arb.Arbiter {
		return ab.wrapArbiter(core.NewSSVC(core.Config{
			Radix: xbarRadix, CounterBits: 12, SigBits: 4, Policy: core.SubtractRealTime,
			Vticks:   vt[o],
			EnableGL: true,
			GLVtick:  noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick(),
			GLBurst:  2,
		}))
	})
}

// The saturated crossbar's shape. An input offers one request per cycle, so
// with GB flows spread over all 64 outputs an arbitration sees about one
// requester; converging them on 8 hot outputs keeps about six inputs
// waiting at each arbitration. An input with a backlogged GB queue never
// offers its BE head, so BE traffic gets inputs of its own, contending for
// two outputs the GB flows leave alone.
const (
	satHotOutputs = 8
	satGBInputs   = 56
	satBEOutputs  = 2
)

// satSpecs generates the saturated crossbar's flows: each of 56 inputs
// carries 8 backlogged GB flows (4 flits), one to each hot output, with the
// Figure 4 reservation mix rotated per input and scaled so an output's
// reservations sum to 0.70; each of the other 8 inputs carries one
// backlogged BE flow of 2 flits, the smallest packet, where per-packet
// cost dominates; every input carries one periodic GL flow.
func satSpecs(seed uint64) (gb, be, gl []noc.FlowSpec, glOffset []noc.Cycle) {
	rng := traffic.NewRNG(runner.DeriveSeed(seed, 1))
	outs := permutation(rng, xbarRadix)
	hot, beOut := outs[:satHotOutputs], outs[satHotOutputs:satHotOutputs+satBEOutputs]
	ins := permutation(rng, xbarRadix)
	glDst := permutation(rng, xbarRadix)
	shares := [8]float64{0.40, 0.20, 0.10, 0.10, 0.05, 0.05, 0.05, 0.05}
	for n, i := range ins {
		if n < satGBInputs {
			// Inputs n, n+8, n+16, ... hold the same slot of the mix at a
			// given output: seven inputs per slot, a tenth of the mix each.
			for k, o := range hot {
				gb = append(gb, noc.FlowSpec{Src: i, Dst: o, Class: noc.GuaranteedBandwidth,
					Rate: 0.10 * shares[(n+k)%8], PacketLength: 4})
			}
		} else {
			be = append(be, noc.FlowSpec{Src: i, Dst: beOut[n%satBEOutputs], Class: noc.BestEffort, PacketLength: 2})
		}
		gl = append(gl, noc.FlowSpec{Src: i, Dst: glDst[i], Class: noc.GuaranteedLatency,
			Rate: 0.01, PacketLength: 2})
		glOffset = append(glOffset, noc.CycleOf(uint64(rng.Intn(1024))))
	}
	return gb, be, gl, glOffset
}

func buildXbarSat(seed uint64, tr *tracer, shards int) (*simRun, error) {
	gb, be, gl, glOffset := satSpecs(seed)
	var ab *arbBounds
	if tr != nil {
		ab = tr.arbBounds("core")
	}
	all := append(append(append([]noc.FlowSpec(nil), gb...), be...), gl...)
	sw, err := xbarSwitch(all, ab, shards)
	if err != nil {
		return nil, err
	}
	e := newSimEngine("switchsim", sw, tr)
	for _, s := range gb {
		if err := e.add(s, traffic.NewBacklogged(e.seq, s, 4)); err != nil {
			return nil, err
		}
	}
	for _, s := range be {
		if err := e.add(s, traffic.NewBacklogged(e.seq, s, 4)); err != nil {
			return nil, err
		}
	}
	for i, s := range gl {
		if err := e.add(s, traffic.NewPeriodic(e.seq, s, 1024, glOffset[i])); err != nil {
			return nil, err
		}
	}
	return &simRun{engines: []*simEngine{e}, warm: 50000}, nil
}

// buildXbarSparse is the same switch at low load: one Bernoulli GB flow at
// 2 % and one Bernoulli BE flow at 1 % per input.
func buildXbarSparse(seed uint64, tr *tracer, shards int) (*simRun, error) {
	rng := traffic.NewRNG(runner.DeriveSeed(seed, 2))
	gbDst := permutation(rng, xbarRadix)
	beDst := permutation(rng, xbarRadix)
	var specs []noc.FlowSpec
	for i := 0; i < xbarRadix; i++ {
		specs = append(specs,
			noc.FlowSpec{Src: i, Dst: gbDst[i], Class: noc.GuaranteedBandwidth, Rate: 0.02, PacketLength: 8},
			noc.FlowSpec{Src: i, Dst: beDst[i], Class: noc.BestEffort, PacketLength: 4})
	}
	var ab *arbBounds
	if tr != nil {
		ab = tr.arbBounds("core")
	}
	sw, err := xbarSwitch(specs, ab, shards)
	if err != nil {
		return nil, err
	}
	e := newSimEngine("switchsim", sw, tr)
	for i, s := range specs {
		rate := 0.02
		if s.Class == noc.BestEffort {
			rate = 0.01
		}
		if err := e.add(s, traffic.NewBernoulli(e.seq, s, rate, runner.DeriveSeed(seed, 100+i))); err != nil {
			return nil, err
		}
	}
	// At 2 % load the packet pool's high-water mark keeps rising for tens
	// of thousands of cycles.
	return &simRun{engines: []*simEngine{e}, warm: 200000}, nil
}

// routedFlows attaches 4 backlogged 4-flit flows per terminal to seeded
// distinct destinations.
func routedFlows(e *simEngine, terminals int, rng *traffic.RNG) error {
	for src := 0; src < terminals; src++ {
		dsts := permutation(rng, terminals)
		n := 0
		for _, dst := range dsts {
			if dst == src {
				continue
			}
			s := noc.FlowSpec{Src: src, Dst: dst, Class: noc.BestEffort, PacketLength: 4}
			if err := e.add(s, traffic.NewBacklogged(e.seq, s, 4)); err != nil {
				return err
			}
			if n++; n == 4 {
				break
			}
		}
	}
	return nil
}

func buildMesh(seed uint64, tr *tracer, shards int) (*simEngine, error) {
	var ab *arbBounds
	if tr != nil {
		ab = tr.arbBounds("arb")
	}
	m, err := mesh.New(mesh.Config{Width: 8, Height: 8, BufferFlits: 16, Shards: shards,
		NewArbiter: func() arb.Arbiter { return ab.wrapArbiter(arb.NewLRG(5)) }})
	if err != nil {
		return nil, err
	}
	e := newSimEngine("mesh", m, tr)
	return e, routedFlows(e, m.Nodes(), traffic.NewRNG(runner.DeriveSeed(seed, 3)))
}

func buildClos(seed uint64, tr *tracer) (*simEngine, error) {
	topo, err := compose.TwoLevelClos(8, 8, 4)
	if err != nil {
		return nil, err
	}
	var ab *arbBounds
	if tr != nil {
		ab = tr.arbBounds("arb")
	}
	n, err := compose.New(compose.Config{Topology: topo, BufferFlits: 16,
		NewArbiter: func(_, _, ports int) arb.Arbiter { return ab.wrapArbiter(arb.NewLRG(ports)) }})
	if err != nil {
		return nil, err
	}
	e := newSimEngine("compose", n, tr)
	return e, routedFlows(e, n.Terminals(), traffic.NewRNG(runner.DeriveSeed(seed, 4)))
}

// routedWarm cycles fill the routed networks' pipelines: the in-flight
// population of backlogged flows peaks within a few thousand cycles.
const routedWarm = 5000

// buildRouted is the 8x8 mesh (5-port LRG arbiters, the scalar path below
// arb's plane threshold) and the 8-leaf Clos, run for equal cycle counts.
func buildRouted(seed uint64, tr *tracer, shards int) (*simRun, error) {
	m, err := buildMesh(seed, tr, shards)
	if err != nil {
		return nil, err
	}
	c, err := buildClos(seed, tr)
	if err != nil {
		return nil, err
	}
	return &simRun{engines: []*simEngine{m, c}, warm: routedWarm}, nil
}

var simWorkloads = map[string]simSize{
	"xbar64_sat":    {buildXbarSat, 2800000, 1024},
	"xbar64_sparse": {buildXbarSparse, 13000000, 8192},
	"routed_sat":    {buildRouted, 260000, 128},
}

// setupSim builds the workload and warms it until the pools settle.
func setupSim(name string, seed uint64, tr *tracer) (*simRun, error) {
	r, err := simWorkloads[name].build(seed, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", name, err)
	}
	for _, e := range r.engines {
		e.eng.Run(r.warm)
		if err := e.err(); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
	}
	return r, nil
}

// sliceTimes is what one timed pass over the slices measured.
type sliceTimes struct {
	delivered []uint64        // per slice
	digests   []string        // cumulative, at each slice end
	waits     []time.Duration // every engine advancing one chunk, in order
	waitCyc   []uint64        // cycles simulated in that wait, all engines
	waitPkts  []uint64        // packets delivered in it
	layerNS   map[string]int64
	layerCyc  map[string]uint64
	total     time.Duration
}

// runSlices advances every engine perSlice cycles per slice, in chunks of
// at most chunk cycles, the engines taking turns chunk by chunk; one wait
// is every engine advancing one chunk. With a tracer each Run call is a
// child span of root and the boundary aggregates are flushed under it.
func (r *simRun) runSlices(perSlice, chunk uint64, n int, tr *tracer, root int) (*sliceTimes, error) {
	st := &sliceTimes{layerNS: map[string]int64{}, layerCyc: map[string]uint64{}}
	start := time.Now()
	for s := 0; s < n; s++ {
		before := r.delivered()
		for left := perSlice; left > 0; {
			step := chunk
			if step > left {
				step = left
			}
			left = noc.SatSub(left, step)
			p0 := r.delivered()
			w0 := time.Now()
			for _, e := range r.engines {
				var id int
				if tr != nil {
					id = tr.begin(root, e.layer+".Run", e.layer)
				}
				c0 := time.Now()
				e.eng.Run(noc.CycleOf(step))
				st.layerNS[e.layer] += int64(time.Since(c0))
				st.layerCyc[e.layer] += step
				if tr != nil {
					tr.finish(id)
					tr.flush(id)
				}
			}
			st.waits = append(st.waits, time.Since(w0))
			st.waitCyc = append(st.waitCyc, step*uint64(len(r.engines)))
			st.waitPkts = append(st.waitPkts, noc.SatSub(r.delivered(), p0))
		}
		for _, e := range r.engines {
			if err := e.err(); err != nil {
				return nil, fmt.Errorf("%s engine froze: %w", e.layer, err)
			}
		}
		st.delivered = append(st.delivered, noc.SatSub(r.delivered(), before))
		st.digests = append(st.digests, r.digest())
	}
	st.total = time.Since(start)
	return st, nil
}
