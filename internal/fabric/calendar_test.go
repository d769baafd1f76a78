package fabric

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// calHeap is the arrival calendar as one binary min-heap on (cycle, flow
// index), the shape it had before the timing wheel: FuzzCalendar's oracle.
type calHeap []calEntry

// calPush files an entry. The heap is ordered on (cycle, flow index), so
// same-cycle entries pop in flow order.
func (h *calHeap) calPush(e calEntry) {
	*h = append(*h, e)
	h.calUp(len(*h) - 1)
}

// calUp restores the heap order above position c.
func (h calHeap) calUp(c int) {
	for c > 0 {
		parent := (c - 1) / 2
		if !calLess(h[c], h[parent]) {
			break
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
}

// calDown restores the heap order below position c.
func (h calHeap) calDown(c int) {
	n := len(h)
	for {
		l, r := 2*c+1, 2*c+2
		min := c
		if l < n && calLess(h[l], h[min]) {
			min = l
		}
		if r < n && calLess(h[r], h[min]) {
			min = r
		}
		if min == c {
			return
		}
		h[c], h[min] = h[min], h[c]
		c = min
	}
}

// calPop removes and returns the earliest entry.
func (h *calHeap) calPop() calEntry {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.calDown(0)
	return top
}

// calRemove deletes the entry at heap position c.
func (h *calHeap) calRemove(c int) {
	last := len(*h) - 1
	(*h)[c] = (*h)[last]
	*h = (*h)[:last]
	if c < last {
		h.calDown(c)
		h.calUp(c)
	}
}

func calLess(a, b calEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.fi < b.fi
}

// calCompare orders distinct entries as calLess does, for slices.SortFunc.
func calCompare(a, b calEntry) int {
	if calLess(a, b) {
		return -1
	}
	return 1
}

// filed returns every arrival the set's calendar holds, wheel and far
// heap, sorted on (cycle, flow index). A wheel entry's cycle is its
// slot's, not calAt, so compareCalendar can hold calAt to it.
func (s *Sources) filed() []calEntry {
	var out []calEntry
	for d := uint64(0); d < calSlots; d++ {
		at := s.base + noc.CycleOf(d)
		for f := s.wheel[at%calSlots]; f != 0; f = s.calNext[f-1] {
			out = append(out, calEntry{at: at, fi: f - 1})
		}
	}
	out = append(out, s.far...)
	slices.SortFunc(out, calCompare)
	return out
}

// firing is one generator call: a flow's Emit for the arrival it
// announced at `at`.
type firing struct {
	fi      int
	at, now noc.Cycle
}

// calDeltas are the scripted gaps from a NextArrival's `from` to the
// arrival it announces. A flow that fired re-arms from the wheel's base,
// so calSlots-1 files it in the last slot inside the horizon and calSlots
// at the first cycle beyond it; the zeros make same-cycle ties common,
// and the gaps of tens of cycles keep firings frequent.
var calDeltas = []noc.Cycle{0, 0, 0, 0, 1, 2, 3, 62, 63, 63, 64, 64, 65, 127, 128, 129, calSlots - 1, calSlots, 1 << 40}

// calDelta is the gap flow fi's call-th NextArrival announces under
// seed: a pure function, so the set and the oracle hear the same script.
func calDelta(seed uint64, fi int, call uint64) noc.Cycle {
	z := seed ^ uint64(fi)*0x9e3779b97f4a7c15 ^ call*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return calDeltas[z%uint64(len(calDeltas))]
}

// scriptGen schedules its arrivals from calDelta and logs every Emit. It
// never emits a packet, so queues stay empty and no flow ever blocks.
type scriptGen struct {
	fi    int
	seed  uint64
	calls uint64
	at    noc.Cycle // the arrival last announced
	log   *[]firing
}

func (g *scriptGen) NextArrival(from noc.Cycle, _ int) (noc.Cycle, bool) {
	g.at = from + calDelta(g.seed, g.fi, g.calls)
	g.calls++
	return g.at, true
}

func (g *scriptGen) Emit(now noc.Cycle) *noc.Packet {
	*g.log = append(*g.log, firing{fi: g.fi, at: g.at, now: now})
	return nil
}

func (g *scriptGen) Tick(noc.Cycle, int) *noc.Packet { panic("a scheduling flow was polled") }

// calOracle replays the same schedule through calHeap with the
// generation protocol the heap calendar ran: arm every flow at the first
// Generate, arm a late add from lastNow+1, pop every entry due at or
// before now in (cycle, flow) order, and re-arm a fired flow from now+1.
type calOracle struct {
	h       calHeap
	gens    []*scriptGen
	retired []bool
	ready   bool
	lastNow noc.Cycle
	log     []firing
}

func (o *calOracle) arm(i int, from noc.Cycle) {
	at, _ := o.gens[i].NextArrival(from, 0)
	o.h.calPush(calEntry{at: at, fi: int32(i)})
}

func (o *calOracle) add(g *scriptGen) {
	o.gens = append(o.gens, g)
	o.retired = append(o.retired, false)
	if o.ready {
		o.arm(len(o.gens)-1, o.lastNow+1)
	}
}

func (o *calOracle) retire(i int) {
	if o.retired[i] {
		return
	}
	o.retired[i] = true
	for c, e := range o.h {
		if int(e.fi) == i {
			o.h.calRemove(c)
			return
		}
	}
}

func (o *calOracle) generate(now noc.Cycle) {
	if !o.ready {
		o.ready = true
		for i := range o.gens {
			if !o.retired[i] {
				o.arm(i, now)
			}
		}
	}
	o.lastNow = now
	for len(o.h) > 0 && o.h[0].at <= now {
		e := o.h.calPop()
		g := o.gens[e.fi]
		g.Emit(now)
		at, _ := g.NextArrival(now+1, 0)
		o.h.calPush(calEntry{at: at, fi: e.fi})
	}
}

// calCoverage counts what a schedule exercised.
type calCoverage struct {
	fired, ties, skips, late, lateAdds, retires int
}

// checkCalendar runs one schedule through a source set and the heap
// oracle and fails at the first firing, or the first filed arrival, on
// which they differ. ops[0] seeds the arrival script and ops[1] picks the
// first cycle; each further byte is one op: low three bits 0 add a flow,
// 1 retire one, 2 jump 2 to 157 cycles ahead, anything else step one
// cycle.
func checkCalendar(t *testing.T, ops []byte, cov *calCoverage) {
	t.Helper()
	if len(ops) < 2 {
		return
	}
	seed := uint64(ops[0])*0x2545f4914f6cdd1d + 1
	s := NewSources(1)
	o := &calOracle{}
	var log []firing
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 1}
	next, started := noc.Cycle(ops[1])<<32, false
	generate := func(now noc.Cycle) {
		s.Generate(now)
		o.generate(now)
		next, started = now+1, true
	}
	for step, b := range ops[2:] {
		switch b % 8 {
		case 0:
			fi := s.Len()
			o.add(&scriptGen{fi: fi, seed: seed, log: &o.log})
			s.Add(traffic.Flow{Spec: spec, Gen: &scriptGen{fi: fi, seed: seed, log: &log}}, 0)
			if started {
				cov.lateAdds++
			}
		case 1:
			if n := s.Len(); n > 0 {
				i := int(b>>3) % n
				if !o.retired[i] {
					cov.retires++
				}
				s.Retire(i)
				o.retire(i)
			}
		case 2:
			if started {
				cov.skips++
				generate(next + 1 + noc.Cycle(b>>3)*5)
				break
			}
			generate(next)
		default:
			generate(next)
		}
		if msg := compareCalendar(s, o, log); msg != "" {
			t.Fatalf("op %d (%#02x): %s", step, b, msg)
		}
	}
	for k, f := range log {
		cov.fired++
		if f.at < f.now {
			cov.late++ // due in a skipped cycle
		}
		if k > 0 && log[k-1].at == f.at {
			cov.ties++
		}
	}
}

// compareCalendar returns how the set and the oracle differ, or "".
func compareCalendar(s *Sources, o *calOracle, log []firing) string {
	if len(log) != len(o.log) {
		return fmt.Sprintf("%d generator calls, the heap made %d", len(log), len(o.log))
	}
	for k := range log {
		if log[k] != o.log[k] {
			return fmt.Sprintf("call %d is %+v, the heap made %+v", k, log[k], o.log[k])
		}
	}
	got, want := s.filed(), slices.Clone(o.h)
	slices.SortFunc(want, calCompare)
	if !slices.Equal(got, want) {
		return fmt.Sprintf("calendar holds %v, the heap %v", got, want)
	}
	for _, e := range s.far {
		if e.at < s.base+calSlots {
			return fmt.Sprintf("far heap holds flow %d at cycle %d, inside the horizon from %d", e.fi, e.at, s.base)
		}
	}
	for _, e := range got {
		if s.calAt[e.fi] != e.at {
			return fmt.Sprintf("flow %d is filed at cycle %d, calAt says %d", e.fi, e.at, s.calAt[e.fi])
		}
	}
	return ""
}

// calSeed expands a seed into a schedule: a handful of flows up front,
// then mostly single steps with adds, retires and skips among them.
func calSeed(seed uint64, n int) []byte {
	rng := traffic.NewRNG(seed)
	ops := []byte{byte(seed), byte(seed >> 8), 0, 8, 16, 24, 32, 40, 48, 56}
	for len(ops) < n {
		b := byte(rng.Uint64())
		if b%8 < 3 && rng.Intn(3) != 0 {
			b |= 3 // a plain step
		}
		ops = append(ops, b)
	}
	return ops
}

// TestCalendarMatchesHeap holds the timing wheel to the heap calendar it
// replaced over seeded schedules: same flows fired, in the same (cycle,
// flow index) order, and the same arrivals filed after every op.
func TestCalendarMatchesHeap(t *testing.T) {
	var cov calCoverage
	for seed := uint64(1); seed <= 24; seed++ {
		checkCalendar(t, calSeed(seed, 1200), &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.fired < 5000 || cov.ties < 500 || cov.skips < 500 || cov.late < 500 || cov.lateAdds < 100 || cov.retires < 100 {
		t.Fatalf("schedules lost coverage: %+v", cov)
	}
}

// FuzzCalendar lets the fuzzer search the schedule space of
// TestCalendarMatchesHeap.
func FuzzCalendar(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(calSeed(seed, 400))
	}
	// Script 25 arms flows 2, 3 and 6 of eight at base+calSlots-1 (the
	// last slot), base+calSlots (the first far cycle) and 2^40 out; the
	// steps run the horizon past the first two.
	horizon := append([]byte{25, 0}, make([]byte, 8)...)
	f.Add(append(horizon, bytes.Repeat([]byte{3}, calSlots+2)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkCalendar(t, ops, new(calCoverage))
	})
}

// TestGenerateSkippedCycles pins Generate's contract when cycles are
// skipped: arrivals due in the skipped cycles fire at the next call, in
// (cycle, flow index) order and ahead of those due at that cycle, and
// re-arm from the cycle after it — not a wheel turn later.
func TestGenerateSkippedCycles(t *testing.T) {
	var log []firing
	gaps := [][]noc.Cycle{
		{3, 0},            // flow 0: cycle 3, then the cycle after the call
		{2, 0},            // flow 1: cycle 2
		{3, 0},            // flow 2: cycle 3, tied with flow 0
		{5, 0},            // flow 3: cycle 5, the call's own cycle
		{calSlots + 6, 0}, // flow 4: beyond the horizon, and skipped over too
		{6, 0},            // flow 5: after the call
		{1 << 40, 0},      // flow 6: never
	}
	s := NewSources(1)
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 1}
	for i, g := range gaps {
		s.Add(traffic.Flow{Spec: spec, Gen: &fixedGen{scriptGen: scriptGen{fi: i, log: &log}, gaps: g}}, 0)
	}

	s.Generate(0)
	s.Generate(5) // cycles 1 to 4 skipped
	want := []firing{
		{fi: 1, at: 2, now: 5},
		{fi: 0, at: 3, now: 5},
		{fi: 2, at: 3, now: 5},
		{fi: 3, at: 5, now: 5},
	}
	if !slices.Equal(log, want) {
		t.Fatalf("after Generate(5) the calls were\n%v\nwant\n%v", log, want)
	}

	log = log[:0]
	const later = calSlots + 36
	s.Generate(later) // flow 4's arrival is skipped over as well
	want = []firing{
		{fi: 0, at: 6, now: later},
		{fi: 1, at: 6, now: later},
		{fi: 2, at: 6, now: later},
		{fi: 3, at: 6, now: later},
		{fi: 5, at: 6, now: later},
		{fi: 4, at: calSlots + 6, now: later},
	}
	if !slices.Equal(log, want) {
		t.Fatalf("after Generate(%d) the calls were\n%v\nwant\n%v", later, log, want)
	}
	got := s.filed()
	for _, e := range got[:len(got)-1] {
		if e.at != later+1 {
			t.Fatalf("a flow fired at cycle %d re-armed at %d, want %d: %v", later, e.at, later+1, got)
		}
	}
	if last := got[len(got)-1]; last.fi != 6 || len(got) != 7 {
		t.Fatalf("calendar after cycle %d is %v", later, got)
	}
}

// fixedGen announces the gaps in order, then repeats the last.
type fixedGen struct {
	scriptGen
	gaps []noc.Cycle
}

func (g *fixedGen) NextArrival(from noc.Cycle, _ int) (noc.Cycle, bool) {
	g.at = from + g.gaps[min(g.calls, uint64(len(g.gaps)-1))]
	g.calls++
	return g.at, true
}

// TestRetireLeavesNoCalendarEntry retires a flow listed in the middle of
// a wheel slot and one waiting in the far heap: neither is filed after,
// neither fires, and the flows around them fire as scheduled.
func TestRetireLeavesNoCalendarEntry(t *testing.T) {
	var log []firing
	gaps := []noc.Cycle{5, 5, 5, calSlots + 5, 1 << 40}
	s := NewSources(1)
	spec := noc.FlowSpec{Src: 0, Dst: 1, Class: noc.BestEffort, PacketLength: 1}
	for i, g := range gaps {
		s.Add(traffic.Flow{Spec: spec, Gen: &fixedGen{scriptGen: scriptGen{fi: i, log: &log}, gaps: []noc.Cycle{g}}}, 0)
	}
	s.Generate(0)
	if len(s.far) != 2 {
		t.Fatalf("far heap holds %v, want flows 3 and 4", s.far)
	}
	s.Retire(1) // slot 5 lists 2, 1, 0: the middle entry
	s.Retire(3) // in the far heap
	want := []calEntry{{at: 5, fi: 0}, {at: 5, fi: 2}, {at: 1 << 40, fi: 4}}
	if got := s.filed(); !slices.Equal(got, want) {
		t.Fatalf("after retiring flows 1 and 3 the calendar holds %v, want %v", got, want)
	}
	for now := noc.Cycle(1); now <= calSlots+10; now++ {
		s.Generate(now)
	}
	for _, f := range log {
		if f.fi == 1 || f.fi == 3 {
			t.Fatalf("retired flow %d fired: %v", f.fi, f)
		}
	}
	if len(log) == 0 || log[0] != (firing{fi: 0, at: 5, now: 5}) || log[1] != (firing{fi: 2, at: 5, now: 5}) {
		t.Fatalf("flows 0 and 2 fired %v, want both at cycle 5 first", log)
	}
	s.Retire(0)
	s.Retire(4)
	if got := s.filed(); len(got) != 1 || got[0].fi != 2 {
		t.Fatalf("after retiring flows 0 and 4 the calendar holds %v, want flow 2 alone", got)
	}
}
