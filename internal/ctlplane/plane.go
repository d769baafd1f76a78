// Package ctlplane is the crash-safe reservation control plane over the
// crossbar simulator: a long-running simulation that admits, leases,
// resizes, and revokes GB/GL reservations live, applying every accepted
// mutation through core.SSVC.SetVticks re-derivation while journaling it
// for bit-for-bit crash recovery (see journal.go and DESIGN.md "Control
// plane"). The package is wall-clock free by construction — leases
// expire at simulated cycles, never timers — and is enforced so by the
// determinism analyzer (internal/analysis).
package ctlplane

import (
	"fmt"
	"math"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/switchsim"
	"swizzleqos/internal/traffic"
)

// SimConfig fully determines a control-plane simulation: it is the
// journal header, so two planes built from equal configs (and fed equal
// command sequences) produce identical delivery traces.
type SimConfig struct {
	Radix         int `json:"radix"`
	BEBufferFlits int `json:"beBuf"`
	GLBufferFlits int `json:"glBuf"`
	GBBufferFlits int `json:"gbBuf"`

	CounterBits   int                `json:"counterBits"`
	SigBits       int                `json:"sigBits"`
	CounterPolicy core.CounterPolicy `json:"counterPolicy"`

	// LMax bounds packet lengths network-wide (the Eq. 1-3 lmax).
	LMax int `json:"lmax"`
	// GBShare and GLShare are the initial per-output budget fractions.
	GBShare float64 `json:"gbShare"`
	GLShare float64 `json:"glShare"`
	GLBurst int     `json:"glBurst"`

	// Degrade selects PolicyDegrade (true) or PolicyReject (false) as
	// the initial budget-shrink policy; the policy command flips it.
	Degrade bool `json:"degrade"`

	// Seed derives every workload RNG stream (per-reservation, via
	// runner.DeriveSeed).
	Seed uint64 `json:"seed"`

	// SnapEvery is the snapshot cadence in cycles (0 disables).
	// Snapshots are fsync'd checkpoints: they bound the simulation
	// progress lost to a crash, let replay cross-check its re-execution,
	// and carry the plane's whole state, so RecoverFile restores the
	// newest one and re-executes at most SnapEvery cycles behind it. With
	// 0 a killed plane's journal has no snapshot and recovery re-executes
	// it from the header, as Rebuild always does.
	SnapEvery noc.Cycle `json:"snapEvery,omitempty"`

	// Faults optionally installs a fault-injection schedule; fail-stop
	// faults interact with admission through the degrade-vs-reject
	// policy. Part of the journal header: replay re-injects them.
	Faults *faults.Config `json:"faults,omitempty"`
}

// WithDefaults fills unset fields with the repository's standard
// figure-4-shaped geometry.
func (c SimConfig) WithDefaults() SimConfig {
	if c.Radix == 0 {
		c.Radix = 8
	}
	if c.BEBufferFlits == 0 {
		c.BEBufferFlits = 16
	}
	if c.GLBufferFlits == 0 {
		c.GLBufferFlits = 16
	}
	if c.GBBufferFlits == 0 {
		c.GBBufferFlits = 16
	}
	if c.CounterBits == 0 {
		c.CounterBits = 12
	}
	if c.SigBits == 0 {
		c.SigBits = 4
	}
	if c.LMax == 0 {
		c.LMax = 8
	}
	if c.GBShare == 0 {
		c.GBShare = 0.85
	}
	if c.GLShare == 0 {
		c.GLShare = 0.05
	}
	if c.GLBurst == 0 {
		c.GLBurst = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// glVtick is the SSVC cycle budget per GL packet implied by the GL
// share: the leaky bucket refills one lmax-flit packet's worth every
// LMax/GLShare cycles. A denormal GLShare can push the quotient past
// 2^64, so the float-to-fixed crossing is clamped, not cast.
func (c SimConfig) glVtick() noc.VTime {
	if c.GLShare <= 0 {
		return 0
	}
	return noc.VTimeOf(noc.ClampUint64(float64(c.LMax)/c.GLShare+0.5, math.MaxUint64))
}

// Validate reports a descriptive error for malformed configurations;
// WithDefaults output always passes. Like TableConfig.Validate it bounds
// every integer field, for journal-decoded headers too.
func (c SimConfig) Validate() error {
	if err := c.tableConfig().Validate(); err != nil {
		return err
	}
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"BE buffer", c.BEBufferFlits},
		{"GL buffer", c.GLBufferFlits},
		{"GB buffer", c.GBBufferFlits},
		{"GL burst", c.GLBurst},
	} {
		if f.v < 1 || f.v > 1<<20 {
			return fmt.Errorf("ctlplane: %s %d must be in [1,%d]", f.name, f.v, 1<<20)
		}
	}
	// The GL share sets the leaky bucket's Vtick; a share so small that
	// LMax/GLShare clamps at 2^64-1, or that a burst carries the bucket
	// clock to 2^64, would leave the GL class unpoliced.
	if vt := c.glVtick(); vt > 0 {
		if err := core.CheckGLBucket(vt, c.GLBurst); err != nil || vt == noc.VTimeOf(math.MaxUint64) {
			return fmt.Errorf("ctlplane: GL share %g too small: a burst of %d at Vtick LMax/share saturates the GL bucket", c.GLShare, c.GLBurst)
		}
	}
	// Admission takes packets up to LMax in both reservable classes, and
	// the switch refuses a flow whose packets could never enter its buffer.
	if c.LMax > c.GLBufferFlits || c.LMax > c.GBBufferFlits {
		return fmt.Errorf("ctlplane: lmax %d exceeds a reservable class's buffer (GL %d, GB %d flits)",
			c.LMax, c.GLBufferFlits, c.GBBufferFlits)
	}
	if c.CounterBits < 2 || c.CounterBits > 32 {
		return fmt.Errorf("ctlplane: counter bits %d must be in [2,32]", c.CounterBits)
	}
	if hi := min(c.CounterBits-1, core.MaxSigBits); c.SigBits < 1 || c.SigBits > hi {
		return fmt.Errorf("ctlplane: sig bits %d must be in [1,%d]", c.SigBits, hi)
	}
	return nil
}

// tableConfig derives the admission-table geometry.
func (c SimConfig) tableConfig() TableConfig {
	p := PolicyReject
	if c.Degrade {
		p = PolicyDegrade
	}
	return TableConfig{
		Radix:         c.Radix,
		LMax:          c.LMax,
		GLBufferFlits: c.GLBufferFlits,
		GBShare:       c.GBShare,
		GLShare:       c.GLShare,
		Policy:        p,
	}
}

// PlaneStats counts control-plane outcomes over the run.
type PlaneStats struct {
	Admitted       uint64 // accepted add commands
	RejectedBudget uint64 // gb-budget / gl-budget rejections
	RejectedBound  uint64 // gl-bound rejections
	RejectedOther  uint64 // every other rejection
	Expired        uint64 // reservations reclaimed by lease expiry
	Revoked        uint64 // reservations revoked by policy or fail-stop
}

// flowKey identifies a reservation's flow for delivery dispatch.
type flowKey struct {
	src, dst int
	class    noc.Class
}

// attached is a reservation's traffic source: its generator, for the
// snapshot, and the switch's flow index it feeds, for RetireFlow.
type attached struct {
	gen  traffic.Stateful
	flow int
}

// leaseEntry schedules a deterministic expiry.
type leaseEntry struct {
	at noc.Cycle
	id uint64
}

// leaseHeap is a hand-rolled min-heap ordered by (at, id); peeking and
// popping never allocate, keeping the idle cycle loop allocation-free.
type leaseHeap []leaseEntry

func leaseLess(a, b leaseEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

func (h *leaseHeap) push(e leaseEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !leaseLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *leaseHeap) pop() leaseEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && leaseLess(old[l], old[small]) {
			small = l
		}
		if r < n && leaseLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// Plane runs a crossbar simulation under reservation control. Build one
// with New, optionally AttachJournal, mutate with Apply or ApplyAll, and
// drive simulated time with Advance. Not safe for concurrent use: the
// daemon funnels network commands into the single goroutine driving the
// plane.
type Plane struct {
	cfg SimConfig
	sw  *switchsim.Switch
	tab *Table
	seq traffic.Sequence

	jr     *Journal
	seqNo  uint64    // journaled command sequence
	snapAt noc.Cycle // next snapshot cycle (grid multiple of SnapEvery)

	// pending is ApplyAll's scratch: the out indexes of the batch's
	// accepted commands, whose results acknowledge turns OK.
	pending []int
	// stateBuf is checkpoint's: every snapshot's state blob is encoded
	// into it, so a checkpoint allocates nothing that grows with the state.
	stateBuf []byte
	// recovered is what RecoverFile or Rebuild did to build this plane.
	recovered Recovery

	leases   leaseHeap
	attached map[uint64]attached
	feedback map[flowKey]*traffic.ClosedLoop
	vtArena  []noc.VTime

	traceHash uint64
	delivered uint64
	onDeliver func(*noc.Packet)

	// wrapSource, set by tests only, wraps each source generator on its
	// way into the switch (to count the calls the fabric makes).
	wrapSource func(traffic.Generator) traffic.Generator

	stats PlaneStats
	err   error
}

// New builds a plane with no journal attached (volatile: replay tests
// and the experiments layer drive it directly).
func New(cfg SimConfig) (*Plane, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tab, err := NewTable(cfg.tableConfig())
	if err != nil {
		return nil, err
	}
	arbCfg := core.Config{
		Radix:       cfg.Radix,
		CounterBits: cfg.CounterBits,
		SigBits:     cfg.SigBits,
		Policy:      cfg.CounterPolicy,
		Vticks:      make([]core.VTime, cfg.Radix),
		EnableGL:    cfg.GLShare > 0,
		GLVtick:     cfg.glVtick(),
		GLBurst:     cfg.GLBurst,
	}
	if err := arbCfg.Validate(); err != nil {
		return nil, fmt.Errorf("ctlplane: %w", err)
	}
	sw, err := switchsim.New(switchsim.Config{
		Radix:         cfg.Radix,
		BEBufferFlits: cfg.BEBufferFlits,
		GLBufferFlits: cfg.GLBufferFlits,
		GBBufferFlits: cfg.GBBufferFlits,
	}, func(output int) arb.Arbiter {
		c := arbCfg
		c.Vticks = make([]core.VTime, cfg.Radix)
		return core.NewSSVC(c)
	})
	if err != nil {
		return nil, fmt.Errorf("ctlplane: %w", err)
	}
	p := &Plane{
		cfg:       cfg,
		sw:        sw,
		tab:       tab,
		snapAt:    cfg.SnapEvery, // first checkpoint one cadence in
		attached:  make(map[uint64]attached),
		feedback:  make(map[flowKey]*traffic.ClosedLoop),
		vtArena:   make([]noc.VTime, cfg.Radix),
		traceHash: traceSeed,
	}
	if cfg.Faults != nil {
		if err := sw.SetFaults(*cfg.Faults); err != nil {
			return nil, fmt.Errorf("ctlplane: %w", err)
		}
		sw.OnFailStop(p.failStop)
	}
	sw.OnDeliver(p.deliverHook)
	sw.OnRelease(p.seq.Recycle)
	return p, nil
}

// AttachJournal makes the plane durable. writeHeader is true for a
// fresh journal (a header record is written and fsync'd immediately)
// and false when resuming onto a recovered journal.
func (p *Plane) AttachJournal(jr *Journal, writeHeader bool) error {
	p.jr = jr
	if !writeHeader {
		return nil
	}
	rec := &Record{Kind: KindHeader, Header: &Header{Version: JournalVersion, Sim: p.cfg}}
	if err := jr.Append(rec); err != nil {
		return err
	}
	return jr.Sync()
}

// Config returns the plane's resolved configuration.
func (p *Plane) Config() SimConfig { return p.cfg }

// Now returns the current simulated cycle.
func (p *Plane) Now() noc.Cycle { return p.sw.Now() }

// Err returns the terminal error that froze the plane (a sick engine or
// a failed journal write), or nil.
func (p *Plane) Err() error {
	if p.err != nil {
		return p.err
	}
	return p.sw.Err()
}

// Counters returns the switch's common counter block.
func (p *Plane) Counters() fabric.Counters { return p.sw.Totals() }

// FaultTotals returns the fault injector's counters.
func (p *Plane) FaultTotals() faults.Counters { return p.sw.FaultTotals() }

// Stats returns the control-plane outcome counters.
func (p *Plane) Stats() PlaneStats { return p.stats }

// TraceHash returns the running digest over all delivered packets; two
// runs with equal configs and command sequences must agree on it.
func (p *Plane) TraceHash() uint64 { return p.traceHash }

// Delivered returns the number of delivered packets.
func (p *Plane) Delivered() uint64 { return p.delivered }

// Table exposes the admission table for inspection (read-only).
func (p *Plane) Table() *Table { return p.tab }

// OnDeliver chains an external delivery observer (statistics, trace
// writers) after the plane's own accounting.
func (p *Plane) OnDeliver(fn func(*noc.Packet)) { p.onDeliver = fn }

// FNV-1a constants for the delivery-trace digest.
const (
	traceSeed  = 14695981039346656037
	tracePrime = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * tracePrime }

// deliverHook digests every delivery, feeds closed-loop sources their
// completions, and chains the external observer. It runs inside the
// engine's cycle loop, so it must not allocate.
func (p *Plane) deliverHook(pkt *noc.Packet) {
	p.delivered++
	h := p.traceHash
	h = mix(h, pkt.ID)
	h = mix(h, uint64(pkt.Src)<<32|uint64(pkt.Dst)<<8|uint64(pkt.Class))
	h = mix(h, uint64(pkt.Length))
	h = mix(h, pkt.CreatedAt.Uint())
	h = mix(h, pkt.EnqueuedAt.Uint())
	h = mix(h, pkt.GrantedAt.Uint())
	h = mix(h, pkt.DeliveredAt.Uint())
	h = mix(h, uint64(pkt.Retries))
	p.traceHash = h
	if g, ok := p.feedback[flowKey{pkt.Src, pkt.Dst, pkt.Class}]; ok {
		g.Completed(pkt)
	}
	if p.onDeliver != nil {
		p.onDeliver(pkt)
	}
}

// fail freezes the plane on its first terminal error.
func (p *Plane) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// change is what admission decided for one accepted command: the
// reservation it added, removed or resized, or the ones a budget or
// policy command revoked. The journal record and the switch are both
// written from it.
type change struct {
	res     *Reservation
	revoked []*Reservation
}

// id is the reservation id the command's record and reply carry.
func (c change) id() uint64 {
	if c.res == nil {
		return 0
	}
	return c.res.ID
}

// Apply executes one command at the current cycle: the batch of one.
//
//ssvc:serial-only
func (p *Plane) Apply(cmd Command) Result {
	one := [1]Command{cmd}
	var out [1]Result
	return p.ApplyAll(one[:], out[:0])[0]
}

// ApplyAll executes a batch of commands at the current cycle and appends
// their results to out, in order. Each command runs the whole sequence —
// admission check, journal append, live materialization onto the switch —
// before the next is looked at, so the state changes and the journal
// bytes are those of one Apply call per command. What the batch shares is
// the fsync: one Journal.Sync after the last append, and only behind it
// does acknowledge turn any result OK. Rejections return typed reasons
// and a retry-after hint without touching the running simulation or the
// journal. A failed append or sync freezes the plane, and every command
// of the batch that admission had not already refused is answered
// ReasonJournal: its record may or may not survive a restart.
//
//ssvc:serial-only
func (p *Plane) ApplyAll(cmds []Command, out []Result) []Result {
	now := p.sw.Now()
	p.pending = p.pending[:0]
	var from uint64
	if p.jr != nil {
		from = p.jr.records
	}
	for i := range cmds {
		cmd := &cmds[i]
		ch, rej := p.admit(cmd, now)
		if rej != nil {
			out = append(out, p.rejected(Result{Cycle: now, Reason: rej.Reason, RetryAfter: rej.RetryAfter, Msg: rej.Msg}))
			continue
		}
		p.seqNo++
		if p.jr != nil {
			if err := p.jr.Append(&Record{Kind: KindCmd, Cmd: &CmdRecord{Seq: p.seqNo, Cycle: now, ID: ch.id(), Cmd: *cmd}}); err != nil {
				return p.journalFailed(err, out, len(cmds)-i, now)
			}
		}
		p.materialize(cmd, ch)
		p.pending = append(p.pending, len(out))
		r := Result{ID: ch.id(), Cycle: now}
		if cmd.Op == OpAdd || cmd.Op == OpResize {
			r.Vtick = ch.res.GrantedVtick()
		}
		out = append(out, r)
	}
	if p.jr != nil {
		if err := p.jr.Sync(); err != nil {
			return p.journalFailed(err, out, 0, now)
		}
	}
	return p.acknowledge(out, from, now)
}

// acknowledge turns the batch's accepted results OK, and is the only
// code in the package that does. It does so only with the journal off,
// or durable and holding exactly the batch's records: nothing failed,
// nothing appended since the last successful Sync, and one record behind
// from per result it turns OK. Otherwise the plane freezes and the batch
// is answered ReasonJournal, as after a failed write.
func (p *Plane) acknowledge(out []Result, from uint64, now noc.Cycle) []Result {
	if p.jr != nil && !p.jr.holds(from, len(p.pending)) {
		err := fmt.Errorf("ctlplane: %d accepted command(s) not durably journaled", len(p.pending))
		return p.journalFailed(err, out, 0, now)
	}
	for _, i := range p.pending {
		out[i].OK = true
	}
	return out
}

// journalFailed freezes the plane on a failed journal write and answers
// the batch: the commands already staged in out and the unseen ones not
// yet looked at are all refused. The in-memory admissions already
// happened, but no client gets an OK, and a restart recovers whatever
// prefix of the batch reached the disk.
func (p *Plane) journalFailed(err error, out []Result, unseen int, now noc.Cycle) []Result {
	p.fail(err)
	r := Result{Cycle: now, Reason: ReasonJournal, Msg: p.err.Error()}
	for _, i := range p.pending {
		out[i] = p.rejected(r)
	}
	for ; unseen > 0; unseen-- {
		out = append(out, p.rejected(r))
	}
	return out
}

// admit validates cmd and runs it through the admission table at cycle
// now. An accepted command has changed the table and nothing else:
// whatever the line protocol or a journal handed in, a command that
// comes back without a Reject has passed Command.Validate and the
// table's admit.Check and budget checks, and the change holds only
// reservations the table built.
func (p *Plane) admit(cmd *Command, now noc.Cycle) (change, *Reject) {
	if err := p.Err(); err != nil {
		return change{}, &Reject{Reason: ReasonFrozen, Msg: err.Error()}
	}
	if err := cmd.Validate(); err != nil {
		return change{}, &Reject{Reason: ReasonBadRequest, Msg: err.Error()}
	}
	var ch change
	var rej *Reject
	switch cmd.Op {
	case OpAdd:
		ch.res, rej = p.tab.Admit(*cmd.Flow, cmd.Lease, now)
	case OpRemove:
		ch.res, rej = p.tab.Remove(cmd.ID, now)
	case OpResize:
		ch.res, rej = p.tab.Resize(cmd.ID, cmd.Rate, cmd.Lease, cmd.SetLease, now)
	case OpBudget:
		ch.revoked, rej = p.tab.SetBudget(cmd.Output, cmd.Share, now)
	case OpPolicy:
		pol := PolicyReject
		if cmd.Degrade {
			pol = PolicyDegrade
		}
		ch.revoked = p.tab.SetPolicy(pol)
	}
	return ch, rej
}

// materialize carries an admitted command onto the running switch.
func (p *Plane) materialize(cmd *Command, ch change) {
	switch cmd.Op {
	case OpAdd:
		p.materializeAdd(ch.res)
		p.stats.Admitted++
	case OpRemove:
		p.detach(ch.res)
		p.refit(ch.res.Req.Dst)
	case OpResize:
		if ch.res.ExpiresAt != 0 {
			p.leases.push(leaseEntry{at: ch.res.ExpiresAt, id: ch.res.ID})
		}
		p.refit(ch.res.Req.Dst)
	case OpBudget, OpPolicy:
		for _, res := range ch.revoked {
			p.detach(res)
			p.stats.Revoked++
		}
		if cmd.Op == OpBudget {
			p.refit(cmd.Output)
		} else {
			p.refitAll()
		}
	}
}

// rejected counts a rejection by reason class.
func (p *Plane) rejected(r Result) Result {
	switch r.Reason {
	case ReasonGBBudget, ReasonGLBudget:
		p.stats.RejectedBudget++
	case ReasonGLBound:
		p.stats.RejectedBound++
	default:
		p.stats.RejectedOther++
	}
	return r
}

// newSource builds the traffic generator a reservation's request
// describes, seeded from the reservation's id, and wires a closed-loop
// one to the delivery feedback. Recovery from a snapshot builds the same
// generator and then restores its state into it.
func (p *Plane) newSource(res *Reservation) traffic.Stateful {
	req := res.Req
	spec := req.Spec()
	seed := runner.DeriveSeed(p.cfg.Seed, int(res.ID&0x7fffffff))
	if req.Users > 0 {
		clCfg := traffic.ClosedLoopConfig{Users: req.Users}
		if req.Class == noc.GuaranteedLatency {
			// GL traffic may never burst past its admitted sigma.
			clCfg.SizeMin, clCfg.SizeMax = 1, req.Burst
		}
		cl := traffic.NewClosedLoop(&p.seq, spec, clCfg, seed)
		p.feedback[flowKey{req.Src, req.Dst, req.Class}] = cl
		return cl
	}
	if req.Class == noc.GuaranteedBandwidth {
		load := req.Load
		if load == 0 {
			load = req.Rate
		}
		return traffic.NewBernoulli(&p.seq, spec, load, seed)
	}
	// Rate passed admission, so the quotient is finite, but the
	// clamped crossing keeps the conversion well-defined regardless.
	interval := noc.ClampUint64(float64(req.PacketLen)/req.Rate+0.5, math.MaxUint64)
	if interval == 0 {
		interval = 1
	}
	return traffic.NewPeriodic(&p.seq, spec, noc.CycleOf(interval), 0)
}

// materializeAdd attaches the admitted reservation's traffic source to
// the switch and re-derives the output's Vticks.
func (p *Plane) materializeAdd(res *Reservation) {
	req := res.Req
	a := attached{gen: p.newSource(res), flow: p.sw.Flows()}
	var src traffic.Generator = a.gen
	if p.wrapSource != nil {
		src = p.wrapSource(src)
	}
	if err := p.sw.AddFlow(traffic.Flow{Spec: req.Spec(), Gen: src}); err != nil {
		p.fail(fmt.Errorf("ctlplane: materialize reservation %d: %w", res.ID, err))
		return
	}
	p.attached[res.ID] = a
	if res.ExpiresAt != 0 {
		p.leases.push(leaseEntry{at: res.ExpiresAt, id: res.ID})
	}
	if req.Class == noc.GuaranteedBandwidth {
		p.refit(req.Dst)
	}
}

// detach hands a revoked/expired reservation's flow back to the switch,
// which stops generating it now (its generator is never asked again)
// and drops it from admission once its queue has drained; packets
// already queued drain at whatever priority the zeroed Vtick leaves
// them, best effort. Admission forbids duplicate (src,dst,class)
// reservations, so a present feedback entry under this key always
// belongs to this reservation.
func (p *Plane) detach(res *Reservation) {
	a, ok := p.attached[res.ID]
	if !ok {
		return
	}
	delete(p.attached, res.ID)
	p.sw.RetireFlow(a.flow)
	if _, isCL := a.gen.(*traffic.ClosedLoop); isCL {
		delete(p.feedback, flowKey{res.Req.Src, res.Req.Dst, res.Req.Class})
	}
}

// refit re-derives output o's SSVC Vticks from the granted rates — the
// PR 3 live-reconfiguration machinery, now driven by every accepted
// mutation.
func (p *Plane) refit(o int) {
	ssvc, ok := p.sw.Arbiter(o).(*core.SSVC)
	if !ok {
		p.fail(fmt.Errorf("ctlplane: output %d arbiter is not an SSVC", o))
		return
	}
	if err := ssvc.SetVticks(p.tab.Vticks(o, p.vtArena)); err != nil {
		p.fail(fmt.Errorf("ctlplane: refit output %d: %w", o, err))
	}
}

// refitAll re-derives every output.
func (p *Plane) refitAll() {
	for o := 0; o < p.cfg.Radix; o++ {
		p.refit(o)
	}
}

// failStop is the switch's fail-stop hook: revoke what the dead port
// carried, apply the degrade-vs-reject policy, and re-derive Vticks.
// Fail-stop cycles come from the journaled faults schedule, so replay
// re-derives identical revocations — nothing to journal here.
func (p *Plane) failStop(now noc.Cycle, f faults.FailStop) {
	revoked := p.tab.FailStop(f)
	for _, res := range revoked {
		p.detach(res)
		p.stats.Revoked++
	}
	p.refitAll()
}

// expire reclaims a lease whose cycle has come. Stale heap entries
// (reservation removed or re-leased since) are skipped.
func (p *Plane) expire(e leaseEntry, now noc.Cycle) {
	res := p.tab.Get(e.id)
	if res == nil || res.ExpiresAt != e.at {
		return
	}
	if _, rej := p.tab.Remove(e.id, now); rej != nil {
		return
	}
	p.detach(res)
	p.refit(res.Req.Dst)
	p.stats.Expired++
}

// settle fires every deterministic event due at or before the current
// cycle: lease expirations first, then the snapshot checkpoint. Called
// at every Advance boundary, so the canonical order at a cycle C is
// expiries(C), snapshot(C), then commands applied at C, then the step
// into C — replay reproduces exactly this order.
func (p *Plane) settle() {
	now := p.sw.Now()
	for len(p.leases) > 0 && p.leases[0].at <= now {
		e := p.leases.pop()
		p.expire(e, now)
	}
	if p.cfg.SnapEvery > 0 {
		for p.snapAt <= now {
			// Advanced first: the snapshot's state carries the next one's cycle.
			p.snapAt += p.cfg.SnapEvery
			p.checkpoint(KindSnap)
		}
	}
}

// checkpoint writes a snapshot (or end) record and fsyncs it.
func (p *Plane) checkpoint(kind string) {
	if p.jr == nil {
		return
	}
	rec := &Record{Kind: kind, Snap: p.snapRecord()}
	if err := p.jr.Append(rec); err != nil {
		p.fail(err)
		return
	}
	if err := p.jr.Sync(); err != nil {
		p.fail(err)
	}
}

// snapRecord captures the current state: the fields replay verifies and,
// unless the plane has frozen, the blob recovery restores from. A frozen
// plane writes none, so its recovery re-executes into the same freeze
// instead of restoring a sick engine. The blob aliases stateBuf and is
// valid until the next snapshot.
func (p *Plane) snapRecord() *SnapRecord {
	s := &SnapRecord{
		Cycle:     p.sw.Now(),
		Seq:       p.seqNo,
		Table:     p.tab.State(),
		Counters:  p.sw.Totals(),
		Delivered: p.delivered,
		TraceHash: p.traceHash,
	}
	if p.Err() == nil {
		if b, err := p.appendState(p.stateBuf[:0], s.Table.Reservations); err == nil {
			p.stateBuf, s.State = b, b
		}
	}
	return s
}

// Finish writes the clean-shutdown end record.
//
//ssvc:serial-only
func (p *Plane) Finish() error {
	p.checkpoint(KindEnd)
	return p.Err()
}

// JournalCounts returns the records appended and the fsyncs issued
// through the attached journal since it was opened (zeros without one).
func (p *Plane) JournalCounts() (records, syncs uint64) {
	if p.jr == nil {
		return 0, 0
	}
	return p.jr.Counts()
}

// CloseJournal detaches and closes the journal, if any.
func (p *Plane) CloseJournal() error {
	if p.jr == nil {
		return nil
	}
	jr := p.jr
	p.jr = nil
	return jr.Close()
}

// Advance drives the simulation n cycles, firing lease expirations and
// snapshots at their deterministic cycles along the way. With the
// control plane idle (no due events) the whole span runs as a single
// engine call, so an attached-but-idle plane adds no per-cycle work or
// allocation to the hot loop.
//
//ssvc:serial-only
func (p *Plane) Advance(n noc.Cycle) error {
	end := p.sw.Now() + n
	for {
		if err := p.Err(); err != nil {
			return err
		}
		p.settle()
		now := p.sw.Now()
		if now >= end {
			return p.Err()
		}
		next := end
		if len(p.leases) > 0 && p.leases[0].at < next {
			next = p.leases[0].at
		}
		if p.cfg.SnapEvery > 0 && p.snapAt < next {
			next = p.snapAt
		}
		p.sw.Run(noc.SatSub(next, now))
		if p.sw.Now() == now {
			// A frozen engine makes Run a no-op; Err above will report it
			// next iteration, but never spin here.
			return p.Err()
		}
	}
}

// AdvanceTo drives the simulation to an absolute cycle.
//
//ssvc:serial-only
func (p *Plane) AdvanceTo(c noc.Cycle) error {
	now := p.sw.Now()
	if c < now {
		return fmt.Errorf("ctlplane: cannot advance backwards to cycle %d from %d", c.Uint(), now.Uint())
	}
	return p.Advance(noc.SatSub(c, now))
}
