package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

func clSpec() noc.FlowSpec {
	return noc.FlowSpec{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth, Rate: 0.5, PacketLength: 4}
}

// delivered stamps p as delivered at now, as a switch does.
func delivered(p *noc.Packet, now noc.Cycle) *noc.Packet {
	p.DeliveredAt = now
	return p
}

// TestClosedLoopFeedback walks one user through a full request cycle:
// think, emit every packet, await, complete, think again.
func TestClosedLoopFeedback(t *testing.T) {
	var seq Sequence
	g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{
		Users: 1, ThinkMin: 1, ThinkMax: 1, SizeMin: 3, SizeMax: 3,
	}, 7)
	if p := g.Tick(0, 0); p != nil {
		t.Fatal("emitted during the initial think time")
	}
	var emitted []*noc.Packet
	now := noc.Cycle(1)
	for ; len(emitted) < 3; now++ {
		if p := g.Tick(now, 0); p != nil {
			emitted = append(emitted, p)
			if p.Src != 0 || p.Dst != 1 || p.Length != 4 {
				t.Fatalf("packet does not match the spec: %+v", p)
			}
		}
		if now > 100 {
			t.Fatalf("request never fully emitted (got %d of 3 packets)", len(emitted))
		}
	}
	if g.InFlight() != 1 || g.Issued != 1 {
		t.Fatalf("after full emission: inflight=%d issued=%d, want 1/1", g.InFlight(), g.Issued)
	}
	if p := g.Tick(now, 0); p != nil {
		t.Fatal("emitted while awaiting the response")
	}
	for _, p := range emitted {
		g.Completed(delivered(p, now))
	}
	if g.InFlight() != 0 || g.Done != 1 {
		t.Fatalf("after completion: inflight=%d done=%d, want 0/1", g.InFlight(), g.Done)
	}
	// The user thinks for exactly 1 cycle, then issues the next request.
	if p := g.Tick(now+1, 0); p == nil {
		t.Fatal("user never returned from thinking")
	}
	if g.Issued != 2 {
		t.Fatalf("issued=%d, want 2", g.Issued)
	}
}

// TestClosedLoopTimeout starves a request of deliveries: the deadline
// must resynchronize the loop instead of deadlocking it.
func TestClosedLoopTimeout(t *testing.T) {
	var seq Sequence
	g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{
		Users: 1, ThinkMin: 1, ThinkMax: 1, SizeMin: 1, SizeMax: 1, Timeout: 50,
	}, 7)
	now := noc.Cycle(1)
	var sent *noc.Packet
	for g.Issued == 0 {
		sent = g.Tick(now, 0)
		now++
	}
	for end := now + 200; g.TimedOut == 0; now++ {
		if now >= end {
			t.Fatal("starved request never timed out")
		}
		g.Tick(now, 0)
	}
	// A straggler delivery landing after the timeout, with nothing in
	// flight, must be ignored.
	g.Completed(delivered(sent, now))
	if g.Done != 0 {
		t.Fatalf("done=%d, want 0: the straggler completed nothing", g.Done)
	}
	for end := now + 200; now < end && g.Issued < 2; now++ {
		g.Tick(now, 0)
	}
	if g.Issued < 2 {
		t.Fatal("loop never recovered after the timeout")
	}
}

// TestClosedLoopWatermark: a packet numbered before the source was built
// belongs to an earlier flow on the same key, still draining: it credits
// nothing, the source's own packet does, and a restore refuses a
// watermark above the sequence it is restored next to.
func TestClosedLoopWatermark(t *testing.T) {
	var seq Sequence
	earlier := NewBernoulli(&seq, clSpec(), 1, 1)
	var stale []*noc.Packet
	for now := noc.Cycle(0); len(stale) < 3; now++ {
		if p := earlier.Tick(now, 0); p != nil {
			stale = append(stale, p)
		}
	}
	cfg := ClosedLoopConfig{Users: 1, ThinkMin: 1, ThinkMax: 1, SizeMin: 1, SizeMax: 1}
	g := NewClosedLoop(&seq, clSpec(), cfg, 7)
	now := noc.Cycle(100)
	own := g.Tick(now, 0)
	if own == nil || g.InFlight() != 1 {
		t.Fatalf("a user done thinking issued %v, %d in flight", own, g.InFlight())
	}
	for _, p := range stale {
		g.Completed(delivered(p, now))
	}
	if g.Done != 0 || g.InFlight() != 1 {
		t.Fatalf("earlier packets completed %d requests, %d left in flight", g.Done, g.InFlight())
	}
	g.Completed(delivered(own, now))
	if g.Done != 1 || g.InFlight() != 0 {
		t.Fatalf("its own packet completed %d requests, %d left in flight", g.Done, g.InFlight())
	}

	blob := g.AppendState(nil)
	if err := NewClosedLoop(&seq, clSpec(), cfg, 7).RestoreState(wire.NewReader(blob)); err != nil {
		t.Fatalf("restore next to the same sequence: %v", err)
	}
	var behind Sequence
	err := NewClosedLoop(&behind, clSpec(), cfg, 7).RestoreState(wire.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "watermark") {
		t.Fatalf("restore next to a sequence behind the watermark: %v", err)
	}
}

// TestClosedLoopInvariants randomizes deliveries against a multi-user
// population and checks the conservation law after every cycle: requests
// are either in flight or accounted done/timed out, and in-flight never
// exceeds the population.
func TestClosedLoopInvariants(t *testing.T) {
	var seq Sequence
	cfg := ClosedLoopConfig{Users: 5, ThinkMin: 2, ThinkMax: 20, SizeMin: 1, SizeMax: 16, Timeout: 300}
	g := NewClosedLoop(&seq, clSpec(), cfg, 11)
	rng := NewRNG(99)
	var pending []*noc.Packet // emitted, not yet delivered
	for now := noc.Cycle(0); now < 20000; now++ {
		if p := g.Tick(now, 0); p != nil {
			pending = append(pending, p)
		}
		for len(pending) > 0 && rng.Bernoulli(0.3) {
			g.Completed(delivered(pending[0], now))
			pending = pending[1:]
		}
		if g.InFlight() > cfg.Users {
			t.Fatalf("cycle %d: %d requests in flight for %d users", now.Uint(), g.InFlight(), cfg.Users)
		}
		if g.Issued < g.Done+g.TimedOut {
			t.Fatalf("cycle %d: issued=%d < done=%d + timedout=%d", now.Uint(), g.Issued, g.Done, g.TimedOut)
		}
	}
	if g.Done == 0 {
		t.Fatal("no request ever completed")
	}
}

// TestClosedLoopHeavyTail checks the size distribution: bounded by
// [SizeMin, SizeMax], doubling octaves, and genuinely heavy-tailed
// (both extremes occur; small sizes dominate).
func TestClosedLoopHeavyTail(t *testing.T) {
	var seq Sequence
	g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{SizeMin: 2, SizeMax: 64}, 5)
	counts := map[int]int{}
	for i := 0; i < 10000; i++ {
		s := g.drawSize()
		if s < 2 || s > 64 {
			t.Fatalf("size %d outside [2,64]", s)
		}
		if s != 64 && (s&(s-1)) != 0 {
			t.Fatalf("size %d is not SizeMin<<k", s)
		}
		counts[s]++
	}
	if counts[2] < 4000 || counts[64] == 0 {
		t.Fatalf("distribution shape off: %v", counts)
	}
	if counts[2] < counts[4] || counts[4] < counts[8] {
		t.Fatalf("octave frequencies not decreasing: %v", counts)
	}
}

// TestClosedLoopWideRanges pins the draws at the edges of their types,
// on 64-bit and 32-bit builds alike: a think range of 2^63, 2^64 or
// (past a 32-bit int) 2^31+1 cycles builds and draws inside the range,
// and a size whose next doublings pass the sign bit of int clamps to
// SizeMax instead of wrapping to a smaller positive size.
func TestClosedLoopWideRanges(t *testing.T) {
	for _, c := range []struct{ lo, hi noc.Cycle }{
		{0, 1 << 31},
		{0, math.MaxInt64},
		{0, math.MaxUint64},
		{5, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64},
	} {
		t.Run(fmt.Sprintf("think=[%d,%d]", c.lo, c.hi), func(t *testing.T) {
			var seq Sequence
			g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{Users: 4, ThinkMin: c.lo, ThinkMax: c.hi}, 1)
			high := false
			for i := 0; i < 256; i++ {
				d := g.drawThink()
				if d < c.lo || d > c.hi {
					t.Fatalf("drew %d", d)
				}
				high = high || d-c.lo >= (c.hi-c.lo)/2
			}
			if !high && c.hi > c.lo {
				t.Errorf("256 draws all in the lower half")
			}
		})
	}
	// SizeMin = 2^(W-3) + 2^(W-5): one doubling fits, two pass the sign
	// bit, and three wrap to 2^(W-2), which is positive and above SizeMin.
	t.Run("size", func(t *testing.T) {
		const w = bits.UintSize
		lo := 1<<(w-3) + 1<<(w-5)
		var seq Sequence
		g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{SizeMin: lo, SizeMax: math.MaxInt}, 1)
		counts := map[int]int{}
		for i := 0; i < 4096; i++ {
			counts[g.drawSize()]++
		}
		if len(counts) != 3 || counts[lo] == 0 || counts[lo<<1] == 0 || counts[math.MaxInt] == 0 {
			t.Fatalf("sizes drawn %v, want only %d, %d and %d", counts, lo, lo<<1, math.MaxInt)
		}
	})
	// A deadline or a think time past the last cycle saturates there.
	t.Run("saturate", func(t *testing.T) {
		var seq Sequence
		g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{ThinkMin: 4, ThinkMax: 4, SizeMin: 1, SizeMax: 1, Timeout: math.MaxUint64}, 1)
		end := noc.Cycle(math.MaxUint64 - 2)
		p := g.Tick(end, 0)
		if p == nil || g.Tick(end+1, 0) != nil || g.TimedOut != 0 {
			t.Fatalf("request at cycle %d: packet %v, %d timed out at the next cycle", end, p, g.TimedOut)
		}
		g.Completed(delivered(p, end))
		if g.Done != 1 || g.thinkUntil[0] != math.MaxUint64 {
			t.Fatalf("completed at cycle %d: done %d, thinks until %d", end, g.Done, g.thinkUntil[0])
		}
	})
}

// TestClosedLoopDeterminism: same seed, same behavior.
func TestClosedLoopDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		var seq Sequence
		g := NewClosedLoop(&seq, clSpec(), ClosedLoopConfig{Users: 3}, 17)
		for now := noc.Cycle(0); now < 5000; now++ {
			if p := g.Tick(now, 0); p != nil {
				g.Completed(delivered(p, now+10)) // immediate-ish echo
			}
		}
		return g.Issued, g.Done
	}
	i1, d1 := run()
	i2, d2 := run()
	if i1 != i2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", i1, d1, i2, d2)
	}
}

// clTwin is one side of the schedule differential: a closed loop on its
// own sequence and its packets still in flight, stamped with the cycle
// they are to be delivered.
type clTwin struct {
	seq     Sequence
	g       *ClosedLoop
	emitted uint64
	flight  []*noc.Packet
}

// clCase is one closed-loop configuration and delivery pattern: packet k
// of either twin is delivered delay(k) cycles after its creation, or lost.
type clCase struct {
	seed                                  uint64
	users, thinkMin, thinkSpan, size, out uint8
	maxDelay, loss                        uint8
}

func (c clCase) cfg() ClosedLoopConfig {
	return ClosedLoopConfig{
		Users:    1 + int(c.users%8),
		ThinkMin: noc.CycleOf(uint64(c.thinkMin % 40)),
		ThinkMax: noc.CycleOf(uint64(c.thinkMin%40) + uint64(c.thinkSpan%200) + 1),
		SizeMax:  1 + int(c.size%12),
		Timeout:  noc.CycleOf(uint64(c.out%120) + 1),
	}
}

// deliver files packet p's delivery, or drops it, by the case's pattern.
func (c clCase) deliver(w *clTwin, p *noc.Packet) {
	k := w.emitted
	w.emitted++
	z := (c.seed ^ k*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
	z ^= z >> 29
	if uint8(z) < c.loss {
		return
	}
	w.flight = append(w.flight, delivered(p, p.CreatedAt+noc.CycleOf(z>>8%(uint64(c.maxDelay)+1))))
}

// complete feeds the twin every delivery due at now.
func (w *clTwin) complete(now noc.Cycle) {
	kept := w.flight[:0]
	for _, p := range w.flight {
		if p.DeliveredAt == now {
			w.g.Completed(p)
		} else {
			kept = append(kept, p)
		}
	}
	w.flight = kept
}

// clCoverage counts what the cases exercised.
type clCoverage struct {
	skipped, idleFires, done, timedOut int
}

// checkClosedLoopSchedule drives one closed loop by Tick every cycle and
// its twin by NextArrival/Emit, each fed its own deliveries at the end of
// the cycle as a switch feeds them, and fails at the first cycle the two
// differ: the packet emitted, the request counters, or the announced
// arrival going behind its cycle; after the run, the whole generator
// state (RNG included) must be equal.
func checkClosedLoopSchedule(t *testing.T, c clCase, cycles noc.Cycle, cov *clCoverage) {
	t.Helper()
	spec := clSpec()
	polled, sched := &clTwin{}, &clTwin{}
	polled.g = NewClosedLoop(&polled.seq, spec, c.cfg(), c.seed)
	sched.g = NewClosedLoop(&sched.seq, spec, c.cfg(), c.seed)
	next, ok := sched.g.NextArrival(0, 0)
	for now := noc.Cycle(0); now < cycles; now++ {
		if !ok || next < now {
			t.Fatalf("%+v cycle %d: announced arrival %d (ok %v) is behind the cycle", c, now, next, ok)
		}
		pp := polled.g.Tick(now, 0)
		var ps *noc.Packet
		if next == now {
			if ps = sched.g.Emit(now); ps == nil {
				cov.idleFires++
			}
			next, ok = sched.g.NextArrival(now+1, 0)
		} else {
			cov.skipped++
		}
		if (pp == nil) != (ps == nil) || pp != nil && (pp.ID != ps.ID || pp.CreatedAt != ps.CreatedAt) {
			t.Fatalf("%+v cycle %d: polled emitted %+v, scheduled %+v", c, now, pp, ps)
		}
		if pp != nil {
			c.deliver(polled, pp)
			c.deliver(sched, ps)
		}
		polled.complete(now)
		sched.complete(now)
		a, b := polled.g, sched.g
		if a.Issued != b.Issued || a.Done != b.Done || a.TimedOut != b.TimedOut {
			t.Fatalf("%+v cycle %d: polled issued/done/timed out %d/%d/%d, scheduled %d/%d/%d",
				c, now, a.Issued, a.Done, a.TimedOut, b.Issued, b.Done, b.TimedOut)
		}
	}
	if a, b := polled.g.AppendState(nil), sched.g.AppendState(nil); string(a) != string(b) {
		t.Fatalf("%+v: state after the run: polled %x, scheduled %x", c, a, b)
	}
	cov.done += int(polled.g.Done)
	cov.timedOut += int(polled.g.TimedOut)
}

// TestClosedLoopScheduleMatchesTick: a closed loop driven through its
// schedule emits the packets of the per-cycle poll at the same cycles,
// completes and times out the same requests, and ends in the same state,
// under deliveries that come late, come at once, or never come.
func TestClosedLoopScheduleMatchesTick(t *testing.T) {
	var cov clCoverage
	rng := NewRNG(41)
	for k := 0; k < 64; k++ {
		c := clCase{seed: rng.Uint64(), maxDelay: uint8(rng.Intn(60)), loss: uint8(rng.Intn(40))}
		c.users, c.thinkMin, c.thinkSpan = uint8(rng.Uint64()), uint8(rng.Intn(4)*rng.Intn(20)), uint8(rng.Uint64())
		c.size, c.out = uint8(rng.Uint64()), uint8(rng.Uint64())
		checkClosedLoopSchedule(t, c, 3000, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.skipped < 10000 || cov.idleFires < 10000 || cov.done < 1000 || cov.timedOut < 200 {
		t.Fatalf("cases lost coverage: %+v", cov)
	}
}

// FuzzClosedLoopSchedule lets the fuzzer search configurations and
// delivery patterns of TestClosedLoopScheduleMatchesTick.
func FuzzClosedLoopSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), uint8(20), uint8(5), uint8(30), uint8(10), uint8(20))
	f.Add(uint64(2), uint8(7), uint8(0), uint8(0), uint8(11), uint8(5), uint8(50), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, users, thinkMin, thinkSpan, size, out, maxDelay, loss uint8) {
		c := clCase{seed, users, thinkMin, thinkSpan, size, out, maxDelay, loss}
		checkClosedLoopSchedule(t, c, 1500, new(clCoverage))
	})
}
