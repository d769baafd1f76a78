package fabric

import (
	"slices"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// FlowQueue binds one flow to its unbounded source queue. Generators are
// open-loop: the engine owns the queue and accepted throughput is
// measured at the output, following standard interconnection-network
// methodology.
type FlowQueue struct {
	Flow traffic.Flow
	q    ring
}

// Queued returns the source-queue depth in packets.
func (f *FlowQueue) Queued() int { return f.q.len() }

// Peek returns the head packet without removing it, or nil.
func (f *FlowQueue) Peek() *noc.Packet { return f.q.peek() }

// Pop removes and returns the head packet, or nil. The queue's storage
// stays at its peak depth (see ring), so a long-lived source neither
// grows without bound nor reallocates in steady state.
func (f *FlowQueue) Pop() *noc.Packet { return f.q.pop() }

// Slots returns how many packets the queue's storage holds before it
// next grows.
func (f *FlowQueue) Slots() int { return len(f.q.slots) }

// push appends a generated packet.
func (f *FlowQueue) push(p *noc.Packet) { f.q.push(p) }

// Sources is the set of flow source queues attached to an engine,
// grouped by injection point (the input port of the crossbar, the
// terminal of a composition, or the flow itself when every flow injects
// independently). Admission rotates round-robin within a group so
// co-located flows share their injection port fairly.
//
// Generation mode is per set. A set is event-driven: every generator it
// holds implements traffic.Scheduler, and a calendar of precomputed
// next-arrival cycles replaces the per-cycle poll, so an idle cycle
// costs two comparisons instead of one generator call per flow (which
// was most of a low-load cycle). DisableEventDriven turns a set into
// the reference instead: one Tick per live flow per cycle, in index
// order. The calendar reproduces that walk's RNG draw order and
// emission order exactly, so both emit the bit-identical packet stream
// (TestSourcesEventDrivenMatchesPolled,
// TestSourcesLateAddRetireMatchesPolled).
//
// Flows may be added and retired while the engine runs: a retired flow
// leaves the calendar at once and its group's rotation as soon as its
// queue is empty, so the cost of a cycle follows the flows that are
// live in it, not every flow the set has ever held.
type Sources struct {
	flows    []*FlowQueue // nil once retired and drained
	groups   [][]int      // live flow indices per group, in add order
	rr       []int        // per-group admission rotation, in [0, len(group)]
	deadTail []bool       // per group: flows were removed behind the last listed one
	groupOf  []int        // flow index -> group
	depth    []int        // per-group queued packets
	nonempty []uint64     // mask of groups with at least one queued packet

	// skip masks the groups whose last admission attempt moved nothing and
	// whose next one provably cannot either, as the engine says (Skip). A
	// flow queue going empty -> nonempty, the one generation event that can
	// change an admission outcome, clears its group's bit here; the engine
	// clears bits where a buffer pops (Unskip) or all of them (ForgetSkips).
	skip []uint64

	// Refusal memory (see AdmitGroup): per flow, the buffer that refused
	// its head and that buffer's drain count then; buf is nil while the
	// flow waits on nothing. refusedBy is what the try in progress named
	// (Refused). tries counts try calls (Tries).
	waits     []refusal
	refusedBy *Buffer
	tries     uint64

	// Generation state. calReady flips on the first Generate, which arms
	// every flow attached so far; flows added later arm in Add.
	calReady  bool
	forcePoll bool
	sched     []traffic.Scheduler // per flow; nil before arming, once retired, and when polled
	blocked   []bool              // per flow: waiting on a queue pop to re-arm
	retiring  []bool              // per flow: retired, waiting on its queue to drain
	live      int                 // flows not yet retired: the far heap's capacity bound
	lastNow   noc.Cycle           // cycle of the most recent Generate

	// The arrival calendar: a timing wheel for the next calSlots cycles
	// and a min-heap beyond them. A flow has at most one filed arrival,
	// at cycle calAt[fi]. One in [base, base+calSlots) is listed,
	// unordered, in slot at%calSlots: wheel[k] holds the first flow's
	// index + 1 and calNext[fi] the next one's, 0 ending the list. A
	// later arrival waits in far until base comes within calSlots of it.
	// base is the next cycle Generate fires; every filed arrival is at or
	// after it. due is the slot being fired, sorted on flow index.
	wheel   [calSlots]int32
	calAt   []noc.Cycle
	calNext []int32
	base    noc.Cycle
	far     []calEntry
	due     []int32
}

// refusal is one flow's entry in the refusal memory.
type refusal struct {
	buf    *Buffer
	drains uint64
}

// calEntry is one armed flow in the arrival calendar's far heap.
type calEntry struct {
	at noc.Cycle
	fi int32
}

// calSlots is the timing wheel's horizon in cycles. Nearly every arrival,
// a sparse flow's at 2 % load included, lands inside it, so few go
// through the far heap. The lists are threaded through per-flow arrays,
// so a slot costs one int32 and filing never allocates.
const calSlots = 1024

// NewSources returns a source set with the given number of injection
// groups.
func NewSources(groups int) *Sources {
	return &Sources{
		groups:   make([][]int, groups),
		rr:       make([]int, groups),
		deadTail: make([]bool, groups),
		depth:    make([]int, groups),
		nonempty: make([]uint64, arb.MaskWords(groups)),
		skip:     make([]uint64, arb.MaskWords(groups)),
	}
}

// Add attaches a flow to an injection group and returns its flow index.
// Validation is the engine's job; Sources only stores. Unless
// DisableEventDriven was called, the flow's generator must implement
// traffic.Scheduler. After the first
// Generate the flow generates from the next cycle on — the first cycle a
// per-cycle walk over the grown set would have ticked it — and Add
// reserves its place in the far heap, so Generate never grows the heap.
func (s *Sources) Add(f traffic.Flow, group int) int {
	i := len(s.flows)
	s.flows = append(s.flows, &FlowQueue{Flow: f})
	s.groups[group] = append(s.groups[group], i)
	s.deadTail[group] = false
	s.groupOf = append(s.groupOf, group)
	s.waits = append(s.waits, refusal{})
	s.sched = append(s.sched, nil)
	s.blocked = append(s.blocked, false)
	s.retiring = append(s.retiring, false)
	s.calAt = append(s.calAt, 0)
	s.calNext = append(s.calNext, 0)
	s.live++
	if s.calReady {
		s.reserveFar()
		s.arm(i, s.lastNow+1)
	}
	return i
}

// reserveFar grows the far heap's capacity to the live flow count, the
// most entries it can hold.
func (s *Sources) reserveFar() {
	if cap(s.far) < s.live {
		s.far = append(make([]calEntry, 0, 2*s.live), s.far...)
	}
}

// AddOwnGroup grows the group set by one and attaches the flow to the
// new group — the discipline of engines where every flow injects at its
// own private point (the mesh's local ports admit one packet per flow
// per cycle, not one per node).
func (s *Sources) AddOwnGroup(f traffic.Flow) int {
	s.groups = append(s.groups, nil)
	s.rr = append(s.rr, 0)
	s.deadTail = append(s.deadTail, false)
	s.depth = append(s.depth, 0)
	if w := arb.MaskWords(len(s.groups)); w > len(s.nonempty) {
		s.nonempty = append(s.nonempty, 0)
		s.skip = append(s.skip, 0)
	}
	return s.Add(f, len(s.groups)-1)
}

// Retire reclaims flow i and stops its generator: the generator is never
// asked again, because the flow's calendar entry is dropped at once. The
// flow leaves its group's rotation as soon as its queue is empty: now,
// or on the admission that pops its last packet.
// From then on neither Generate nor AdmitGroup spends anything on it and
// its FlowQueue is released; what stays is its slot in the per-flow
// index tables. The admission order is exactly what it would be had the
// flow stayed listed with an empty queue forever (see unlist). Like Add,
// Retire is for the gap between two cycles, not for a Generate or
// AdmitGroup callback.
func (s *Sources) Retire(i int) {
	if s.flows[i] == nil || s.retiring[i] {
		return
	}
	s.retiring[i] = true
	s.blocked[i] = false
	s.live--
	s.sched[i] = nil
	s.unfile(int32(i))
	if s.flows[i].Queued() > 0 {
		return
	}
	g := s.groupOf[i]
	for pos, fi := range s.groups[g] {
		if fi == i {
			s.unlist(g, pos)
			break
		}
	}
}

// unlist removes the drained retired flow at position pos of group g's
// rotation and releases its queue. The rotation pointer must keep
// naming the same next-to-serve flow it would name had the entry stayed
// as a tombstone: entries before the pointer shift it down by one, and
// the pointer is never wrapped here — rr == len(group) means "behind
// the last listed flow", which is where a flow added next lands, and is
// what deadTail makes AdmitGroup preserve.
func (s *Sources) unlist(g, pos int) {
	idxs := s.groups[g]
	s.flows[idxs[pos]] = nil
	if pos == len(idxs)-1 {
		s.deadTail[g] = true
	}
	s.groups[g] = append(idxs[:pos], idxs[pos+1:]...)
	if pos < s.rr[g] {
		s.rr[g]--
	}
}

// Skip masks group g's admission: its last attempt moved nothing and
// nothing the engine sees can change that before the bit is cleared.
//
//ssvc:hotpath
func (s *Sources) Skip(g int) { arb.MaskSet(s.skip, g) }

// Unskip clears the groups' bits: the buffer they admit into has popped.
//
//ssvc:hotpath
func (s *Sources) Unskip(groups ...int) {
	for _, g := range groups {
		arb.MaskClear(s.skip, g)
	}
}

// ForgetSkips clears every group's bit and the refusal memory, for an
// engine that has rewritten buffers or its try's rules (a fail-stop).
func (s *Sources) ForgetSkips() {
	arb.MaskZero(s.skip)
	clear(s.waits)
}

// SkipMask returns the mask of skipped groups. The slice aliases internal
// state: treat it as read-only; AddOwnGroup may replace it.
func (s *Sources) SkipMask() []uint64 { return s.skip }

// GroupQueued returns the total source-queue depth of a group's flows.
func (s *Sources) GroupQueued(group int) int { return s.depth[group] }

// NonEmptyMask returns the mask of groups with at least one queued
// packet, maintained at every depth transition. Engines iterate it to
// visit only injection points that can possibly admit this cycle; an
// AdmitGroup on a clear-bit group is provably barren. The slice aliases
// internal state: treat it as read-only, valid until the next
// Generate/AdmitGroup/AddOwnGroup call.
func (s *Sources) NonEmptyMask() []uint64 { return s.nonempty }

// Len returns the number of flows ever attached, retired ones included
// (flow indices are never reused).
func (s *Sources) Len() int { return len(s.flows) }

// Groups returns the number of injection groups.
func (s *Sources) Groups() int { return len(s.groups) }

// Flow returns flow index i's queue, or nil once the flow has been
// retired and has drained.
func (s *Sources) Flow(i int) *FlowQueue { return s.flows[i] }

// DisableEventDriven makes the set the per-cycle reference: Generate
// ticks every live flow once a cycle, in index order, and the calendar
// stays empty. It must be called before the first Generate; the
// differential tests and the benchmark's kernels use it as the
// reference, and it is the escape hatch should a scheduling generator
// misbehave.
func (s *Sources) DisableEventDriven() { s.forcePoll = true }

// initCalendar runs on the first Generate: it starts the wheel at `now`,
// sizes the far heap and arms every flow attached (and not already
// retired) before the engine's first cycle.
func (s *Sources) initCalendar(now noc.Cycle) {
	s.calReady = true
	s.base = now
	s.far = make([]calEntry, 0, s.live)
	for i := range s.flows {
		if !s.retiring[i] {
			s.arm(i, now)
		}
	}
}

// arm starts generating flow i from cycle `from`: its generator files
// its first arrival in the calendar (no Tick has ever run, so its RNG
// stream starts exactly where the polled protocol would start it). A
// polled set's walk needs no arming.
func (s *Sources) arm(i int, from noc.Cycle) {
	if s.forcePoll {
		return
	}
	fq := s.flows[i]
	s.sched[i] = fq.Flow.Gen.(traffic.Scheduler)
	s.armFlow(i, from, fq.Queued())
}

// armFlow asks flow i's scheduler for its next arrival at or after
// `from` and files it in the calendar, or parks it as blocked.
//
//ssvc:hotpath
func (s *Sources) armFlow(i int, from noc.Cycle, queued int) {
	if at, ok := s.sched[i].NextArrival(from, queued); ok {
		s.file(at, int32(i))
	} else {
		s.blocked[i] = true
	}
}

// file lists flow fi's arrival at cycle at (never before base): in its
// wheel slot when it falls inside the horizon, in the far heap when not.
//
//ssvc:hotpath
func (s *Sources) file(at noc.Cycle, fi int32) {
	s.calAt[fi] = at
	if at < s.base+calSlots {
		s.list(fi)
		return
	}
	s.far = append(s.far, calEntry{at: at, fi: fi})
	s.farUp(len(s.far) - 1)
}

// list puts flow fi at the head of its arrival's wheel slot.
//
//ssvc:hotpath
func (s *Sources) list(fi int32) {
	k := s.calAt[fi] % calSlots
	s.calNext[fi] = s.wheel[k]
	s.wheel[k] = fi + 1
}

// unfile drops flow fi's filed arrival, if it has one (Retire's cold
// path): calAt names the one place it can be. A flow with none has a
// calAt before base, whose slot does not list it.
func (s *Sources) unfile(fi int32) {
	if at := s.calAt[fi]; at < s.base+calSlots {
		for p := &s.wheel[at%calSlots]; *p != 0; p = &s.calNext[*p-1] {
			if *p == fi+1 {
				*p = s.calNext[fi]
				return
			}
		}
		return
	}
	for c, e := range s.far {
		if e.fi == fi {
			s.farRemove(c)
			return
		}
	}
}

// farRemove deletes and returns the far heap's entry at position c.
//
//ssvc:hotpath
func (s *Sources) farRemove(c int) calEntry {
	e := s.far[c]
	last := len(s.far) - 1
	s.far[c] = s.far[last]
	s.far = s.far[:last]
	if c < last {
		s.farDown(c)
		s.farUp(c)
	}
	return e
}

// farUp restores the far heap's order on cycle above position c. Ties
// need no order: the wheel slot they move into is sorted when it fires.
//
//ssvc:hotpath
func (s *Sources) farUp(c int) {
	for c > 0 {
		parent := (c - 1) / 2
		if s.far[c].at >= s.far[parent].at {
			break
		}
		s.far[c], s.far[parent] = s.far[parent], s.far[c]
		c = parent
	}
}

// farDown restores the far heap's order on cycle below position c.
//
//ssvc:hotpath
func (s *Sources) farDown(c int) {
	n := len(s.far)
	for {
		l, r := 2*c+1, 2*c+2
		min := c
		if l < n && s.far[l].at < s.far[min].at {
			min = l
		}
		if r < n && s.far[r].at < s.far[min].at {
			min = r
		}
		if min == c {
			return
		}
		s.far[c], s.far[min] = s.far[min], s.far[c]
		c = min
	}
}

// advance moves the wheel's horizon past cycle base: it returns the flows
// due at base, sorted on flow index, and moves every far arrival the new
// horizon reaches into its slot (the one base just vacated).
//
//ssvc:hotpath
func (s *Sources) advance() []int32 {
	k := s.base % calSlots
	s.base++
	due := s.due[:0]
	if s.wheel[k] != 0 {
		for f := s.wheel[k]; f != 0; f = s.calNext[f-1] {
			due = append(due, f-1)
		}
		s.wheel[k] = 0
		s.due = due
		if len(due) > 1 {
			slices.Sort(due)
		}
	}
	for len(s.far) > 0 && s.far[0].at < s.base+calSlots {
		s.list(s.farRemove(0).fi)
	}
	return due
}

// Generate lets every flow's generator emit at most one packet into its
// source queue and returns the number of packets created this cycle.
// Packet IDs come from a sequence shared by all flows, so emission order
// within the cycle is part of the result: the calendar's due flows fire
// in ascending flow index, the order of the polled walk. An idle cycle
// is one empty wheel slot and one far-heap-top comparison.
//
// now never decreases and is normally the cycle after the last call.
// Should cycles be skipped, the arrivals due in them fire now, in
// (cycle, flow index) order, ahead of the arrivals due at now, exactly
// as a calendar ordered on (cycle, flow index) would pop them; the walk
// costs one wheel slot per skipped cycle.
//
//ssvc:hotpath
func (s *Sources) Generate(now noc.Cycle) uint64 {
	if !s.calReady {
		s.initCalendar(now)
	}
	s.lastNow = now
	if s.forcePoll {
		return s.poll(now)
	}
	var injected uint64
	for s.base <= now {
		for _, fi := range s.advance() {
			i := int(fi)
			fq := s.flows[i]
			// A generator may emit nothing for an arrival it announced:
			// nothing is counted, and its next NextArrival parks it.
			if p := s.sched[i].Emit(now); p != nil {
				s.record(i, fq, p)
				injected++
			}
			s.armFlow(i, now+1, fq.Queued())
		}
	}
	return injected
}

// poll is DisableEventDriven's walk: it ticks every live flow once, in
// index order, and returns the number of packets created.
//
//ssvc:hotpath
func (s *Sources) poll(now noc.Cycle) uint64 {
	var injected uint64
	for i, fq := range s.flows {
		if fq == nil || s.retiring[i] {
			continue
		}
		if p := fq.Flow.Gen.Tick(now, fq.Queued()); p != nil {
			s.record(i, fq, p)
			injected++
		}
	}
	return injected
}

// record pushes a generated packet and maintains the group depth
// accounting shared by both generation modes.
//
//ssvc:hotpath
func (s *Sources) record(i int, fq *FlowQueue, p *noc.Packet) {
	fq.push(p)
	g := s.groupOf[i]
	if s.depth[g]++; s.depth[g] == 1 {
		arb.MaskSet(s.nonempty, g)
	}
	if fq.Queued() == 1 {
		arb.MaskClear(s.skip, g)
	}
}

// AdmitGroup moves at most one packet from the group's source queues
// toward the engine, rotating across the group's flows for fairness. try
// inspects a head packet and, if the engine accepts it (buffer space,
// admission gates), completes the admission — stamping, buffering,
// observer notification — and reports success; AdmitGroup then pops the
// packet and advances the rotation. It returns the admitted packet, or
// nil if no head was accepted.
//
// The contract try keeps: a refusing try changes nothing, and when it
// refuses because a buffer is full it may say which (Refused). A buffer's
// free space grows only through its drains (Buffer.drains) and a flow's
// head changes only when it is admitted, so until that buffer drains the
// same try would refuse the same head again. AdmitGroup therefore
// remembers the refusal and skips the flow without calling try until the
// buffer has drained, then forgets it. The memory is derived, host-only
// state: it changes which try calls are made, never what is admitted or
// the rotation.
func (s *Sources) AdmitGroup(group int, try func(*noc.Packet) bool) *noc.Packet {
	idxs := s.groups[group]
	n := len(idxs)
	for k, pos := 0, s.rr[group]; k < n; k, pos = k+1, pos+1 {
		if pos == n {
			pos = 0 // rr may stand behind the last listed flow
		}
		fi := idxs[pos]
		if w := &s.waits[fi]; w.buf != nil {
			if w.buf.drains == w.drains {
				continue
			}
			w.buf = nil
		}
		fq := s.flows[fi]
		p := fq.Peek()
		if p == nil {
			continue
		}
		s.tries++
		s.refusedBy = nil
		if !try(p) {
			if b := s.refusedBy; b != nil {
				s.waits[fi] = refusal{buf: b, drains: b.drains}
				s.refusedBy = nil
			}
			continue
		}
		fq.Pop()
		if s.depth[group]--; s.depth[group] == 0 {
			arb.MaskClear(s.nonempty, group)
		}
		// The rotation moves behind the served flow. Past the last listed
		// flow it wraps to the front — unless retired flows were unlisted
		// behind it: then "behind the last" is a distinct place, the one a
		// flow added next will take, and the scan above wraps by itself.
		next := pos + 1
		if next == n && !s.deadTail[group] {
			next = 0
		}
		s.rr[group] = next
		if s.blocked[fi] {
			// A depth-bounded flow was waiting on exactly this pop; re-arm
			// it from the next cycle (Tick would next see the lower depth
			// then — admission runs after generation within a cycle).
			s.blocked[fi] = false
			s.armFlow(fi, s.lastNow+1, fq.Queued())
		} else if s.retiring[fi] && fq.Queued() == 0 {
			s.unlist(group, pos)
		}
		return p
	}
	return nil
}

// Refused names, from inside a refusing try, the buffer that had no room
// for the head: AdmitGroup then skips the flow until that buffer drains.
// An engine names a buffer only where its try refuses for lack of space
// and for nothing else that could change while the buffer stays as full;
// what else can change (a fail-stop) must be followed by ForgetSkips. A
// try that names nothing leaves nothing remembered.
func (s *Sources) Refused(b *Buffer) { s.refusedBy = b }

// Waiting returns the buffer flow i's head is remembered to wait on, or
// nil when the flow waits on nothing or that buffer has drained since.
// For tests: a head Waiting names never fits its buffer.
func (s *Sources) Waiting(i int) *Buffer {
	if w := s.waits[i]; w.buf != nil && w.buf.drains == w.drains {
		return w.buf
	}
	return nil
}

// Tries returns how many times AdmitGroup has called a try: a diagnostic
// of the host's work, like fabric.Offers.Evals, in no counter block or
// digest.
func (s *Sources) Tries() uint64 { return s.tries }
