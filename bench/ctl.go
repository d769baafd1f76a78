package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"swizzleqos/internal/ctlplane"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/traffic"
)

const (
	ctlRadix = 16
	// ctlPasses is how many times one untraced run sets up, writes and
	// recovers: every pass does the same work, and a step of the script or a
	// part of the recovery is timed at the fastest of its executions.
	ctlPasses = 6
	// ctlCommands is the script length for a 10-second run on the reference
	// host: the write phases are about half of it, the recoveries the rest.
	ctlCommands = 250
	// ctlStep is the simulated cycles between commands: enough that the
	// simulation, not the fsync, is most of a step. The disk under the
	// reference host's work dir varied fifteen-fold between runs.
	ctlStep = 4000
	// ctlSnapEvery is ten times the daemon's default: a snapshot is one
	// more fsync, and at the default two steps in five would carry one.
	ctlSnapEvery = 100000
	ctlWarm      = 200000
	// recoverTick is the re-executed deliveries in one timed part of a
	// recovery, two to three milliseconds of it.
	recoverTick = 2048
)

// ctlScript generates the fixed command script from the seed: rounds of a
// leased add, a resize of every second reservation, and a remove of every
// reservation whose lease is not left to expire (every fourth). A
// (src,dst) pair is reused only after it was removed or has expired, and
// the rates fit any output's budget, so every command must be accepted.
// A remove or resize names its target by the index of the add in the
// script; the reservation id is known only once the add was applied.
type ctlCmd struct {
	cmd    ctlplane.Command
	target int // script index of the add this command acts on; -1 for adds
}

func ctlScript(seed uint64, n int) []ctlCmd {
	rng := traffic.NewRNG(runner.DeriveSeed(seed, 9))
	var script []ctlCmd
	for round := 0; len(script) < n; round++ {
		// Consecutive rounds walk the sources; a pair recurs after 16*14
		// rounds, long after its lease of at most 40 rounds' cycles.
		src := round % ctlRadix
		dst := (src + 2 + (round/ctlRadix)%(ctlRadix-2)) % ctlRadix
		expire := round%4 == 3
		lease := noc.CycleOf(uint64(ctlStep * (40 + rng.Intn(40))))
		if expire {
			lease = noc.CycleOf(uint64(ctlStep*(4+rng.Intn(8)) + rng.Intn(ctlStep)))
		}
		rate := 0.01 + 0.005*float64(rng.Intn(4))
		add := len(script)
		script = append(script, ctlCmd{target: -1, cmd: ctlplane.Command{Op: ctlplane.OpAdd, Lease: lease, SetLease: true,
			Flow: &ctlplane.FlowReq{Src: src, Dst: dst, Class: noc.GuaranteedBandwidth, Rate: rate, PacketLen: 2 + 2*rng.Intn(3)}}})
		if round%2 == 1 {
			script = append(script, ctlCmd{target: add, cmd: ctlplane.Command{Op: ctlplane.OpResize, Rate: rate / 2}})
		}
		if !expire {
			script = append(script, ctlCmd{target: add, cmd: ctlplane.Command{Op: ctlplane.OpRemove}})
		}
	}
	return script[:n]
}

// ctlSetup builds the radix-16 plane with its journal in the work dir,
// installs one loaded long-lived reservation per output and warms it.
func ctlSetup(e *env, path string) (*ctlplane.Plane, error) {
	jr, err := ctlplane.CreateJournal(path)
	if err != nil {
		return nil, err
	}
	p, err := ctlplane.New(ctlplane.SimConfig{Radix: ctlRadix, Seed: e.seed, SnapEvery: ctlSnapEvery})
	if err != nil {
		jr.Close()
		return nil, err
	}
	if err := p.AttachJournal(jr, true); err != nil {
		p.CloseJournal()
		return nil, err
	}
	for i := 0; i < ctlRadix; i++ {
		r := p.Apply(ctlplane.Command{Op: ctlplane.OpAdd, Flow: &ctlplane.FlowReq{
			Src: i, Dst: (i + 1) % ctlRadix, Class: noc.GuaranteedBandwidth, Rate: 0.30, PacketLen: 8}})
		if !r.OK {
			p.CloseJournal()
			return nil, fmt.Errorf("install long-lived reservation %d: %s", i, r)
		}
	}
	if err := p.Advance(ctlWarm); err != nil {
		p.CloseJournal()
		return nil, err
	}
	return p, nil
}

// ctlWrite is what the write phase measured.
type ctlWrite struct {
	wall    time.Duration
	stepMS  []float64 // per command: Advance to its cycle, then Apply
	applyUS []float64 // the Apply alone
	advance []time.Duration
	crossed []bool // whether that Advance crossed a snapshot boundary
	cycles  uint64 // simulated over the phase
	acked   int
}

// ctlWritePhase applies the script, one command every ctlStep cycles, then
// writes the end record. With a tracer every command is a child span of
// root with its Advance and its Apply as children.
func ctlWritePhase(p *ctlplane.Plane, script []ctlCmd, res *workloadResult, tr *tracer, root int) (*ctlWrite, error) {
	w := &ctlWrite{}
	ids := make([]uint64, len(script))
	from := p.Now()
	start := time.Now()
	for i, c := range script {
		cmd := c.cmd
		if c.target >= 0 {
			cmd.ID = ids[c.target]
		}
		var id int
		if tr != nil {
			id = tr.begin(root, "ctlplane.command", "bench")
		}
		before := p.Now().Uint()
		t0 := time.Now()
		err := p.Advance(ctlStep)
		t1 := time.Now()
		r := p.Apply(cmd)
		t2 := time.Now()
		if tr != nil {
			tr.finish(id)
			tr.interval(id, "ctlplane.Advance", "ctlplane", tr.at(t0), tr.at(t1), 1)
			tr.interval(id, "ctlplane.Apply", "ctlplane", tr.at(t1), tr.at(t2), 1)
		}
		if err != nil {
			return nil, fmt.Errorf("advance before command %d: %w", i, err)
		}
		w.advance = append(w.advance, t1.Sub(t0))
		w.crossed = append(w.crossed, before/ctlSnapEvery != (before+ctlStep)/ctlSnapEvery)
		w.stepMS = append(w.stepMS, millis(t2.Sub(t0)))
		w.applyUS = append(w.applyUS, float64(t2.Sub(t1))/1e3)
		res.op(r.OK, "command %d (%s): %s", i, cmd.Op, r)
		if r.OK {
			w.acked++
			ids[i] = r.ID
		}
	}
	if err := p.Finish(); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	w.wall = time.Since(start)
	w.cycles = noc.SatSub(p.Now(), from).Uint()
	return w, nil
}

// ctlState is what recovery must reproduce exactly.
type ctlState struct {
	hash      uint64
	delivered uint64
	counters  fabric.Counters
	cycle     uint64
}

func ctlStateOf(p *ctlplane.Plane) ctlState {
	return ctlState{p.TraceHash(), p.Delivered(), p.Counters(), p.Now().Uint()}
}

// timedRecover recovers the journal as a restarted daemon would and returns
// the state it reached and, in seconds, what each part of the recovery
// took: a part ends at every recoverTick-th re-executed delivery, the first
// begins with reading the journal and the last ends when the journal is
// attached again. Replay is deterministic, so every recovery of one journal
// has the same parts.
func timedRecover(path string) (parts []float64, st ctlState, err error) {
	ticks := make([]time.Time, 1, 1<<12)
	delivered := 0
	ticks[0] = time.Now()
	rp, _, err := ctlplane.RecoverFile(path, ctlplane.ReplayOptions{OnDeliver: func(*noc.Packet) {
		if delivered++; delivered%recoverTick == 0 {
			ticks = append(ticks, time.Now())
		}
	}})
	ticks = append(ticks, time.Now())
	if err != nil {
		return nil, st, err
	}
	if rp == nil {
		return nil, st, fmt.Errorf("journal %s holds no records", path)
	}
	st = ctlStateOf(rp)
	rp.CloseJournal()
	for i := 1; i < len(ticks); i++ {
		parts = append(parts, seconds(ticks[i].Sub(ticks[i-1])))
	}
	return parts, st, nil
}

func runCtl(e *env) *workloadResult {
	res := newResult(e)
	n := int(float64(ctlCommands) * e.scale())
	if n < 30 {
		n = 30
	}
	if e.traced {
		return runCtlTraced(e, res, n)
	}
	script := ctlScript(e.seed, n)
	path := filepath.Join(e.workdir, fmt.Sprintf("ctl-%d.journal", e.seed))

	passes := e.passes(ctlPasses)
	var setups []float64
	var steps, recovers [][]float64 // by pass
	var live ctlState
	var alloc0 uint64
	for k := 0; k < passes; k++ {
		if k == passes-1 {
			alloc0 = totalAlloc()
		}
		t0 := time.Now()
		p, err := ctlSetup(e, path)
		if err != nil {
			return res.fail(err)
		}
		setups = append(setups, seconds(time.Since(t0)))
		w, err := ctlWritePhase(p, script, res, nil, 0)
		if err != nil {
			p.CloseJournal()
			return res.fail(err)
		}
		state := ctlStateOf(p)
		if err := p.CloseJournal(); err != nil {
			return res.fail(err)
		}
		if k > 0 {
			res.op(reflect.DeepEqual(state, live), "pass %d reached %+v, the first %+v", k+1, state, live)
		}
		live = state

		// Read phase: recover the journal the write phase produced.
		parts, got, err := timedRecover(path)
		res.op(err == nil && reflect.DeepEqual(got, live), "recovery %d reached %+v (%v), the live plane %+v", k+1, got, err, live)
		if err != nil {
			return res
		}
		steps = append(steps, w.stepMS)
		recovers = append(recovers, parts)
		res.op(len(parts) == len(recovers[0]), "recovery %d has %d timed parts, the first %d", k+1, len(parts), len(recovers[0]))
	}
	alloc1 := totalAlloc()
	key := fmt.Sprintf("seed=%d commands=%d", e.seed, n)
	hash := fmt.Sprintf("%016x", live.hash)
	pins := e.pinned(key, []string{hash})
	res.op(pins == nil || pins[0] == hash, "trace hash %s differs from the pinned one (%s)", hash, key)

	recoverS := sum(fastest(recovers))
	res.setFastest("setup_s", setups)
	res.set("alloc_mb", megabytes(alloc0, alloc1))
	res.setSamples("admit_per_s", float64(n)*1e3/sum(fastest(steps)), 0, 0, n)
	res.setSamples("recover_s", recoverS, 0, 0, len(recovers[0]))
	res.fill(recoverS, 0)
	res.Counts["trace_hash"] = hash
	res.Counts["delivered"] = fmt.Sprint(live.delivered)
	res.Counts["cycles"] = fmt.Sprint(live.cycle)
	return res
}

// runCtlTraced runs the write phase twice, the second time with a span per
// command, and times the control plane's kernels.
func runCtlTraced(e *env, res *workloadResult, n int) *workloadResult {
	script := ctlScript(e.seed, n)
	barePath := filepath.Join(e.workdir, fmt.Sprintf("ctl-bare-%d.journal", e.seed))
	path := filepath.Join(e.workdir, fmt.Sprintf("ctl-traced-%d.journal", e.seed))

	bp, err := ctlSetup(e, barePath)
	if err != nil {
		return res.fail(err)
	}
	bare, err := ctlWritePhase(bp, script, newResult(e), nil, 0)
	bareState := ctlStateOf(bp)
	bp.CloseJournal()
	if err != nil {
		return res.fail(err)
	}

	p, err := ctlSetup(e, path)
	if err != nil {
		return res.fail(err)
	}
	tr := e.newTracer()
	root := tr.begin(0, e.name, "bench")
	w, err := ctlWritePhase(p, script, res, tr, root)
	tr.finish(root)
	live := ctlStateOf(p)
	p.CloseJournal()
	if err != nil {
		return res.fail(err)
	}
	res.op(reflect.DeepEqual(live, bareState), "traced run reached %+v, untraced %+v", live, bareState)
	tr.finishTrace(e, res)

	// Advance cost per cycle and snapshot cost, first and last decile.
	tenth := len(w.advance) / 10
	if tenth < 1 {
		tenth = 1
	}
	decile := func(lo, hi int) (nsPerCycle, snapUS float64) {
		var plain, snap []float64
		for i := lo; i < hi; i++ {
			if w.crossed[i] {
				snap = append(snap, float64(w.advance[i]))
			} else {
				plain = append(plain, float64(w.advance[i]))
			}
		}
		base := median(plain)
		if len(snap) > 0 && median(snap) > base {
			snapUS = (median(snap) - base) / 1e3
		}
		return base / ctlStep, snapUS
	}
	firstNS, firstSnap := decile(0, tenth)
	lastNS, lastSnap := decile(len(w.advance)-tenth, len(w.advance))
	res.set("ctlplane.advance_ns_per_cycle_first", firstNS)
	res.set("ctlplane.advance_ns_per_cycle_last", lastNS)
	res.set("ctlplane.snapshot_us_first", firstSnap)
	res.set("ctlplane.snapshot_us_last", lastSnap)
	res.set("ctlplane.apply_journal_p50_us", median(w.applyUS))
	if st, err := os.Stat(path); err == nil && w.acked > 0 {
		res.set("ctlplane.journal_bytes_per_cmd", float64(st.Size())/float64(w.acked))
	} else {
		res.set("ctlplane.journal_bytes_per_cmd", 0)
	}

	t0 := time.Now()
	recs, _, _, err := ctlplane.ReadJournal(path)
	decode := time.Since(t0)
	res.op(err == nil && len(recs) > 0, "read the journal back: %v", err)
	if err == nil && len(recs) > 0 {
		res.set("ctlplane.decode_us_per_record", float64(decode)/1e3/float64(len(recs)))
		t0 = time.Now()
		rp, err := ctlplane.Rebuild(recs, ctlplane.ReplayOptions{})
		rebuild := time.Since(t0)
		res.op(err == nil, "rebuild: %v", err)
		if err == nil {
			res.op(reflect.DeepEqual(ctlStateOf(rp), live), "rebuild reached %+v, the live plane %+v", ctlStateOf(rp), live)
			res.set("ctlplane.rebuild_ns_per_cycle", float64(rebuild)/float64(live.cycle))
		}
	}
	ctlKernels(e, res)
	res.set("trace.overhead_share", seconds(w.wall)/seconds(bare.wall)-1)
	res.Counts["trace_hash"] = fmt.Sprintf("%016x", live.hash)
	return res
}

// ctlKernels times the admission table, an unjournaled Apply, and the
// journal's Append and Sync in the work dir.
func ctlKernels(e *env, res *workloadResult) {
	kernelBudget := e.kernelBudget()
	tab, err := ctlplane.NewTable(ctlplane.TableConfig{Radix: ctlRadix, LMax: 8, GLBufferFlits: 16, GBShare: 0.85, GLShare: 0.05})
	if err == nil {
		req := ctlplane.FlowReq{Src: 1, Dst: 2, Class: noc.GuaranteedBandwidth, Rate: 0.05, PacketLen: 4}
		res.set("ctlplane.table_admit_ns", perOp(kernelBudget, func(n int) {
			for i := 0; i < n; i++ {
				if r, rej := tab.Admit(req, 0, 0); rej == nil {
					tab.Remove(r.ID, 0)
				}
			}
		}))
	}
	if p, err := ctlplane.New(ctlplane.SimConfig{Radix: ctlRadix, Seed: e.seed}); err == nil {
		add := ctlplane.Command{Op: ctlplane.OpAdd, Flow: &ctlplane.FlowReq{
			Src: 1, Dst: 2, Class: noc.GuaranteedBandwidth, Rate: 0.05, PacketLen: 4}}
		// A few hundred pairs at most: every add leaves a detached flow behind.
		var us []float64
		for i := 0; i < 300; i++ {
			t0 := time.Now()
			r := p.Apply(add)
			p.Apply(ctlplane.Command{Op: ctlplane.OpRemove, ID: r.ID})
			us = append(us, float64(time.Since(t0))/2e3)
		}
		res.set("ctlplane.apply_nojournal_us", median(us))
	}
	jr, err := ctlplane.CreateJournal(filepath.Join(e.workdir, "journal-kernel.journal"))
	if err != nil {
		return
	}
	defer jr.Close()
	rec := &ctlplane.Record{Kind: ctlplane.KindCmd, Cmd: &ctlplane.CmdRecord{Seq: 1, Cycle: 1000, ID: 7,
		Cmd: ctlplane.Command{Op: ctlplane.OpAdd, Flow: &ctlplane.FlowReq{
			Src: 1, Dst: 2, Class: noc.GuaranteedBandwidth, Rate: 0.05, PacketLen: 4}}}}
	var appendUS, syncUS []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if err := jr.Append(rec); err != nil {
			return
		}
		t1 := time.Now()
		if err := jr.Sync(); err != nil {
			return
		}
		appendUS = append(appendUS, float64(t1.Sub(t0))/1e3)
		syncUS = append(syncUS, float64(time.Since(t1))/1e3)
	}
	res.set("ctlplane.journal_append_us", median(appendUS))
	res.set("ctlplane.journal_sync_p50_us", median(syncUS))
	res.set("ctlplane.journal_sync_p99_us", percentile(syncUS, 99))
}
