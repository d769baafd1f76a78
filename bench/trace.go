package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// span is one traced interval. Spans of one workload share Trace; Parent
// is the ID of the span that caused this one (0 for the root). Calls is 1
// for a plain interval and the number of calls an aggregate stands for.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  uint64 `json:"calls"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory, from the benchmark's own files, around
// calls into each layer's public functions. A nil *tracer is the untraced
// run: every wrap helper returns its argument unchanged.
type tracer struct {
	trace   string
	epoch   time.Time
	spans   []span
	bounds  []*boundary
	timerNS float64 // apparent duration of an empty sampled interval
}

func newTracer(trace string) *tracer {
	t := &tracer{trace: trace, epoch: time.Now()}
	// The sampled intervals include one clock read; measure what an empty
	// interval reads as, so aggregates can subtract it.
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	t.timerNS = float64(sum) / n
	return t
}

// newTracer starts the trace of one workload run; its spans share the
// identifier workload-seed.
func (e *env) newTracer() *tracer { return newTracer(fmt.Sprintf("%s-%d", e.name, e.seed)) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at places a wall-clock instant on the trace's time axis.
func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.epoch)) }

// interval records a finished span and returns its ID.
func (t *tracer) interval(parent int, name, layer string, start, end int64, calls uint64) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: t.trace,
		Name: name, Layer: layer, Start: start, End: end, Calls: calls,
	})
	return len(t.spans)
}

// begin opens a span and returns its ID; finish closes it.
func (t *tracer) begin(parent int, name, layer string) int {
	return t.interval(parent, name, layer, t.now(), 0, 1)
}

func (t *tracer) finish(id int) { t.spans[id-1].End = t.now() }

// boundary counts every call across one wrapped layer boundary and times
// a deterministic 1-in-every sample of them. One boundary is shared by all
// wrappers of a kind (all 64 output arbiters of a switch), so the engine
// must be driven from one goroutine, as the inline executor does.
type boundary struct {
	name, layer string
	every       uint64
	since       uint64 // calls since the last sampled one
	calls       uint64
	units       uint64 // boundary-specific work count (requests offered)
	sampled     uint64 // calls inside timed intervals
	intervals   uint64 // timed intervals: one per sampled call, or per sweep
	ns          int64
	// values at the last flush
	fCalls, fSampled, fIntervals uint64
	fNS                          int64
	// calls and units when the timed window began (see tracer.mark)
	calls0, units0 uint64
}

// boundary registers a wrapped boundary. every should not divide the
// number of wrappers sharing it, or the sample would always land on the
// same one; the callers pass primes.
func (t *tracer) boundary(name, layer string, every uint64) *boundary {
	b := &boundary{name: name, layer: layer, every: every}
	t.bounds = append(t.bounds, b)
	return b
}

// sample reports whether this call is a timed one.
func (b *boundary) sample() bool {
	b.calls++
	b.since++
	if b.since < b.every {
		return false
	}
	b.since = 0
	return true
}

// record closes a timed interval that covered n calls.
func (b *boundary) record(t0 time.Time, n uint64) {
	b.ns += int64(time.Since(t0))
	b.sampled += n
	b.intervals++
}

// mark starts the timed window: calls made so far (set-up, warm-up) stay
// out of the aggregates and of the per-window counts.
func (t *tracer) mark() {
	for _, b := range t.bounds {
		b.fCalls, b.fSampled, b.fIntervals, b.fNS = b.calls, b.sampled, b.intervals, b.ns
		b.calls0, b.units0 = b.calls, b.units
	}
}

// window returns the calls and units counted since mark, summed over the
// boundaries of one name.
func (t *tracer) window(name string) (calls, units uint64) {
	for _, b := range t.bounds {
		if b.name == name {
			calls += noc.SatSub(b.calls, b.calls0)
			units += noc.SatSub(b.units, b.units0)
		}
	}
	return calls, units
}

// flush turns the calls made since the last flush into one aggregate span
// per boundary under parent: every call counted, the time estimated from
// the sampled calls. Aggregates are laid end to end from the parent's
// start (the calls they stand for are interleaved through it) and are
// scaled down together in the rare case the estimates exceed the parent.
func (t *tracer) flush(parent int) {
	p := t.spans[parent-1]
	type agg struct {
		b     *boundary
		calls uint64
		ns    float64
	}
	var aggs []agg
	var total float64
	for _, b := range t.bounds {
		calls := noc.SatSub(b.calls, b.fCalls)
		sampled := noc.SatSub(b.sampled, b.fSampled)
		intervals := noc.SatSub(b.intervals, b.fIntervals)
		ns := b.ns - b.fNS
		b.fCalls, b.fSampled, b.fIntervals, b.fNS = b.calls, b.sampled, b.intervals, b.ns
		if calls == 0 {
			continue
		}
		var est float64
		if sampled > 0 {
			per := (float64(ns) - float64(intervals)*t.timerNS) / float64(sampled)
			if per > 0 {
				est = per * float64(calls)
			}
		}
		aggs = append(aggs, agg{b, calls, est})
		total += est
	}
	scale := 1.0
	if room := float64(p.dur()); total > room && total > 0 {
		scale = room / total
	}
	at := p.Start
	for _, a := range aggs {
		end := at + int64(a.ns*scale)
		if end > p.End {
			end = p.End
		}
		t.interval(parent, a.b.name, a.b.layer, at, end, a.calls)
		at = end
	}
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// finishTrace checks the spans as one more operation of the run and
// writes them out when the run was given a span file.
func (t *tracer) finishTrace(e *env, res *workloadResult) {
	err := checkSpans(t.spans)
	res.op(err == nil, "span file: %v", err)
	if e.spanFile != "" {
		if err := t.writeJSONL(e.spanFile); err != nil {
			res.op(false, "%v", err)
		}
	}
}

// selfTimes returns each span's duration minus the part of it its
// children cover, indexed by span ID - 1. Children may overlap (two
// connections at once); the part covered is the union of their intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent-1] = append(children[s.Parent-1], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		self[i] = s.dur()
		covered := s.Start
		for _, k := range kids {
			from, to := k.Start, k.End
			if from < covered {
				from = covered
			}
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// checkSpans verifies the span file is well formed: one trace identifier,
// every child inside its parent, no negative duration or self time.
func checkSpans(spans []span) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans recorded")
	}
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.Trace != spans[0].Trace {
			return fmt.Errorf("span %d has trace %q, root has %q", s.ID, s.Trace, spans[0].Trace)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		if p := spans[s.Parent-1]; s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for i, v := range selfTimes(spans) {
		if v < 0 {
			return fmt.Errorf("span %d (%s) has negative self time %d ns", i+1, spans[i].Name, v)
		}
	}
	return nil
}

// spanSums totals span durations by name and self times by layer.
func spanSums(spans []span) (byName, selfByLayer map[string]int64) {
	byName = map[string]int64{}
	selfByLayer = map[string]int64{}
	self := selfTimes(spans)
	for i, s := range spans {
		byName[s.Name] += s.dur()
		selfByLayer[s.Layer] += self[i]
	}
	return byName, selfByLayer
}

// Sampling periods: primes, so the sampled call rotates through the
// wrappers that share a boundary. Tick is sampled by the sweep, see
// tracedArb.Tick.
const (
	sampleArbitrate = 61
	sampleGranted   = 61
	sampleTickSweep = 16
	sampleGen       = 61
	sampleDeliver   = 61
)

// arbBounds are the three boundaries of one arbiter layer ("core" for
// SSVC, "arb" for LRG).
type arbBounds struct {
	arbitrate, granted, tick *boundary
	// The first and the last arbiter wrapped, and the Tick sweep being
	// timed from the one to the other, if any.
	first, last *tracedArb
	sweepStart  time.Time
	sweepFrom   uint64
	sweeping    bool
}

func (t *tracer) arbBounds(layer string) *arbBounds {
	return &arbBounds{
		arbitrate: t.boundary(layer+".Arbitrate", layer, sampleArbitrate),
		granted:   t.boundary(layer+".Granted", layer, sampleGranted),
		tick:      t.boundary(layer+".Tick", layer, sampleTickSweep),
	}
}

// tracedArb forwards the arb.Arbiter methods through the boundaries.
type tracedArb struct {
	inner arb.Arbiter
	b     *arbBounds
}

func (a *tracedArb) Arbitrate(now noc.Cycle, reqs []arb.Request) int {
	b := a.b.arbitrate
	b.units += uint64(len(reqs))
	if !b.sample() {
		return a.inner.Arbitrate(now, reqs)
	}
	t0 := time.Now()
	w := a.inner.Arbitrate(now, reqs)
	b.record(t0, 1)
	return w
}

func (a *tracedArb) Granted(now noc.Cycle, req arb.Request) {
	b := a.b.granted
	if !b.sample() {
		a.inner.Granted(now, req)
		return
	}
	t0 := time.Now()
	a.inner.Granted(now, req)
	b.record(t0, 1)
}

// Tick is a few nanoseconds, less than reading the clock costs, so it is
// not timed call by call. All three engines tick every arbiter once per
// cycle, one after another in the order they were built; one cycle in
// sampleTickSweep, the whole sweep from the first arbiter's Tick to the
// last one's is timed as a single interval.
func (a *tracedArb) Tick(now noc.Cycle) {
	ab := a.b
	switch {
	case a != ab.first:
		ab.tick.calls++
	case ab.tick.sample():
		ab.sweeping, ab.sweepFrom, ab.sweepStart = true, ab.tick.calls, time.Now()
	}
	a.inner.Tick(now)
	if ab.sweeping && a == ab.last {
		ab.tick.record(ab.sweepStart, noc.SatSub(ab.tick.calls, ab.sweepFrom)+1)
		ab.sweeping = false
	}
}

// wrapArbiter wraps a for tracing. The engines type-assert their arbiters
// for arb.ArrivalObserver and arb.Preemptor and pick their execution path
// from the answer, so the wrapper exposes each interface exactly when a
// does: the traced engine takes the path the bare one takes.
func (b *arbBounds) wrapArbiter(a arb.Arbiter) arb.Arbiter {
	if b == nil {
		return a
	}
	t := &tracedArb{inner: a, b: b}
	if b.first == nil {
		b.first = t
	}
	b.last = t
	obs, isObs := a.(arb.ArrivalObserver)
	pre, isPre := a.(arb.Preemptor)
	switch {
	case isObs && isPre:
		return struct {
			*tracedArb
			arb.ArrivalObserver
			arb.Preemptor
		}{t, obs, pre}
	case isObs:
		return struct {
			*tracedArb
			arb.ArrivalObserver
		}{t, obs}
	case isPre:
		return struct {
			*tracedArb
			arb.Preemptor
		}{t, pre}
	}
	return t
}

// tracedGen forwards traffic.Generator through the generation boundary.
type tracedGen struct {
	inner traffic.Generator
	b     *boundary
}

func (g *tracedGen) Tick(now noc.Cycle, queued int) *noc.Packet {
	if !g.b.sample() {
		return g.inner.Tick(now, queued)
	}
	t0 := time.Now()
	p := g.inner.Tick(now, queued)
	g.b.record(t0, 1)
	return p
}

// tracedSched adds the traffic.Scheduler face, which fabric.Sources needs
// from every generator before it runs event-driven.
type tracedSched struct {
	tracedGen
	sched traffic.Scheduler
}

func (g *tracedSched) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	if !g.b.sample() {
		return g.sched.NextArrival(from, queued)
	}
	t0 := time.Now()
	at, ok := g.sched.NextArrival(from, queued)
	g.b.record(t0, 1)
	return at, ok
}

func (g *tracedSched) Emit(now noc.Cycle) *noc.Packet {
	if !g.b.sample() {
		return g.sched.Emit(now)
	}
	t0 := time.Now()
	p := g.sched.Emit(now)
	g.b.record(t0, 1)
	return p
}

// wrapGenerator wraps g, as a traffic.Scheduler exactly when g is one.
func wrapGenerator(b *boundary, g traffic.Generator) traffic.Generator {
	if b == nil {
		return g
	}
	if s, ok := g.(traffic.Scheduler); ok {
		return &tracedSched{tracedGen{g, b}, s}
	}
	return &tracedGen{g, b}
}
