package main

import (
	"math"
	"time"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/shard"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// Kernels are batch-timed loops over one layer's public functions. Each
// runs in the traced run of the workload its layer matters most to.

// kernelBudget is how long one kernel is timed for: 60 ms at full size,
// less in the smoke test.
func (e *env) kernelBudget() time.Duration {
	return time.Duration(float64(60*time.Millisecond) * math.Min(1, math.Max(0.05, e.scale()*2.5)))
}

// kernelCycles sizes an engine kernel the same way.
func (e *env) kernelCycles(full uint64) uint64 {
	return noc.ClampUint64(float64(full)*math.Min(1, math.Max(0.05, e.scale()*2.5)), full)
}

// sink keeps the compiler from discarding a kernel's result.
var sink int

// contendedSSVC returns a radix-n SSVC with every input requesting and the
// counters spread over the level planes.
func contendedSSVC(n int) (*core.SSVC, []arb.Request) {
	vt := make([]core.VTime, n)
	for i := range vt {
		vt[i] = noc.VTimeOf(uint64(20 + 7*i))
	}
	s := core.NewSSVC(core.Config{Radix: n, CounterBits: 12, SigBits: 4,
		Policy: core.SubtractRealTime, Vticks: vt})
	reqs := make([]arb.Request, n)
	for i := range reqs {
		reqs[i] = arb.Request{Input: i, Class: noc.GuaranteedBandwidth, Packet: &noc.Packet{Src: i, Length: 4}}
		s.Granted(noc.CycleOf(uint64(i)), reqs[i])
	}
	return s, reqs
}

func satKernels(e *env, res *workloadResult) {
	kernelBudget := e.kernelBudget()
	for _, k := range []struct {
		name  string
		radix int
	}{{"core.arbitrate_ns_r64", 64}, {"core.arbitrate_ns_r256", 256}} {
		s, reqs := contendedSSVC(k.radix)
		var now uint64
		res.set(k.name, perOp(kernelBudget, func(n int) {
			for i := 0; i < n; i++ {
				now++
				sink += s.Arbitrate(noc.CycleOf(now), reqs)
			}
		}))
	}
	// Grants rotate over the inputs once per 64 cycles; Vticks around 64
	// keep every auxVC near real time, as reservations summing to the
	// channel do, instead of pinning the counters at their ceiling.
	vt := make([]core.VTime, 64)
	for i := range vt {
		vt[i] = noc.VTimeOf(uint64(48 + i/2))
	}
	s := core.NewSSVC(core.Config{Radix: 64, CounterBits: 12, SigBits: 4,
		Policy: core.SubtractRealTime, Vticks: vt})
	_, reqs := contendedSSVC(64)
	var now uint64
	tick := perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			now++
			s.Tick(noc.CycleOf(now))
		}
	})
	both := perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			now++
			s.Granted(noc.CycleOf(now), reqs[i&63])
			s.Tick(noc.CycleOf(now))
		}
	})
	res.set("core.tick_ns_r64", tick)
	res.set("core.granted_ns_r64", math.Max(both-tick, 0))
	res.set("core.setvticks_us_r64", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			vt[i&63] = noc.VTimeOf(uint64(16 + i&255))
			if err := s.SetVticks(vt); err != nil {
				sink++
			}
		}
	})/1e3)

	lrg := arb.NewLRGState(64)
	res.set("arb.lrg_grant_ns_r64", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			lrg.Grant((i*7 + 3) & 63)
		}
	}))
	res.set("arb.lrg_minrank_ns_r64", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			sink += lrg.MinRankIn1(^uint64(0) >> (uint(i) & 31))
		}
	}))

	ex := shard.NewExecutor(2, 2)
	program := []shard.Stage{{Par: func(int) {}}}
	res.set("shard.barrier_ns_w2", perOp(kernelBudget, func(n int) {
		ex.Cycles(noc.CycleOf(uint64(n)), program, nil)
	}))
	for _, k := range []struct {
		name   string
		shards int
	}{{"shard.xbar64_ns_per_cycle_s1", 1}, {"shard.xbar64_ns_per_cycle_s2", 2}} {
		res.set(k.name, engineNS(func() (*simRun, error) { return buildXbarSat(e.seed, nil, k.shards) }, e.kernelCycles(60000)))
	}
}

// engineNS builds a sim workload's first engine at a shard count, warms it
// and returns host nanoseconds per simulated cycle; 0 when it cannot run.
func engineNS(build func() (*simRun, error), cycles uint64) float64 {
	r, err := build()
	if err != nil {
		return 0
	}
	en := r.engines[0].eng
	en.Run(r.warm / 4)
	t0 := time.Now()
	en.Run(noc.CycleOf(cycles))
	return float64(time.Since(t0)) / float64(cycles)
}

// kernelSources builds a 64-group source set with one 2 % and one 1 %
// Bernoulli flow per group, as xbar64_sparse attaches.
func kernelSources(seed uint64, seq *traffic.Sequence, polled bool) *fabric.Sources {
	src := fabric.NewSources(xbarRadix)
	if polled {
		src.DisableEventDriven()
	}
	for i := 0; i < xbarRadix; i++ {
		gb := noc.FlowSpec{Src: i, Dst: (i + 1) % xbarRadix, Class: noc.GuaranteedBandwidth, Rate: 0.02, PacketLength: 8}
		be := noc.FlowSpec{Src: i, Dst: (i + 2) % xbarRadix, Class: noc.BestEffort, PacketLength: 4}
		src.Add(traffic.Flow{Spec: gb, Gen: traffic.NewBernoulli(seq, gb, 0.02, runner.DeriveSeed(seed, 2*i))}, i)
		src.Add(traffic.Flow{Spec: be, Gen: traffic.NewBernoulli(seq, be, 0.01, runner.DeriveSeed(seed, 2*i+1))}, i)
	}
	return src
}

func sparseKernels(e *env, res *workloadResult) {
	kernelBudget := e.kernelBudget()
	accept := func(*noc.Packet) bool { return true }
	for _, k := range []struct {
		name   string
		polled bool
	}{{"fabric.sources_generate_ns_event", false}, {"fabric.sources_generate_ns_polled", true}} {
		seq := new(traffic.Sequence)
		src := kernelSources(e.seed, seq, k.polled)
		var now uint64
		// One cycle: Generate, then the admissions it made possible, so the
		// queues stay at their low-load depth.
		res.set(k.name, perOp(kernelBudget, func(n int) {
			for i := 0; i < n; i++ {
				now++
				if src.Generate(noc.CycleOf(now)) == 0 {
					continue
				}
				for g := arb.MaskFirst(src.NonEmptyMask()); g >= 0; g = arb.MaskFirst(src.NonEmptyMask()) {
					seq.Recycle(src.AdmitGroup(g, accept))
				}
			}
		}))
	}

	seq := new(traffic.Sequence)
	src := fabric.NewSources(1)
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 4}
	for i := 0; i < 4; i++ {
		src.Add(traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)}, 0)
	}
	var now uint64
	perCycle := perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			now++
			src.Generate(noc.CycleOf(now))
			seq.Recycle(src.AdmitGroup(0, accept))
		}
	})
	res.set("fabric.sources_admit_ns", perCycle)

	bern := traffic.NewBernoulli(seq, spec, 0.02, runner.DeriveSeed(e.seed, 7))
	res.set("traffic.bernoulli_ns", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			now++
			seq.Recycle(bern.Tick(noc.CycleOf(now), 0))
		}
	}))
	back := traffic.NewBacklogged(seq, spec, 4)
	res.set("traffic.backlogged_ns", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			now++
			seq.Recycle(back.Tick(noc.CycleOf(now), 0))
		}
	}))
}

func routedKernels(e *env, res *workloadResult) {
	kernelBudget := e.kernelBudget()
	lrg := arb.NewLRG(5)
	reqs := make([]arb.Request, 5)
	for i := range reqs {
		reqs[i] = arb.Request{Input: i, Class: noc.BestEffort, Packet: &noc.Packet{Src: i, Length: 4}}
	}
	var now uint64
	res.set("arb.lrg_arbitrate_ns_r5", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			now++
			w := lrg.Arbitrate(noc.CycleOf(now), reqs)
			lrg.Granted(noc.CycleOf(now), reqs[w])
		}
	}))

	buf := fabric.NewBuffer(16)
	pkt := &noc.Packet{Length: 4}
	res.set("fabric.buffer_ns_per_pkt", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			if buf.CanAccept(pkt.Length) {
				buf.Reserve(pkt.Length)
				buf.Commit(pkt)
			}
			if buf.Pop() == nil {
				sink++
			}
		}
	}))
	var pool fabric.TxPool
	pool.Preload(1)
	res.set("fabric.txpool_ns", perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get(pkt, i&3))
		}
	}))
	for _, k := range []struct {
		name   string
		shards int
	}{{"shard.mesh_ns_per_cycle_s1", 1}, {"shard.mesh_ns_per_cycle_s2", 2}} {
		res.set(k.name, engineNS(func() (*simRun, error) {
			m, err := buildMesh(e.seed, nil, k.shards)
			if err != nil {
				return nil, err
			}
			return &simRun{engines: []*simEngine{m}, warm: routedWarm}, nil
		}, e.kernelCycles(8000)))
	}
}

// recordNS times stats.Collector.OnDeliver over 64 flows.
func recordNS(kernelBudget time.Duration) float64 {
	col := stats.NewCollector(0, 0)
	pkts := make([]*noc.Packet, 64)
	for i := range pkts {
		pkts[i] = &noc.Packet{Src: i, Dst: (i * 7) & 63, Class: noc.GuaranteedBandwidth, Length: 4,
			CreatedAt: 10, EnqueuedAt: 12, GrantedAt: 20, DeliveredAt: 25}
	}
	return perOp(kernelBudget, func(n int) {
		for i := 0; i < n; i++ {
			col.OnDeliver(pkts[i&63])
		}
	})
}
