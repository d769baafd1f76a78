package ctlplane

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"swizzleqos/internal/fabric"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// The pins below were computed on the commit before source generation
// for flows added mid-run became event-driven (every flow, detached ones
// included, polled through its valve each cycle, nothing ever removed
// from an injection group). The calendar path, closed-loop sources on
// it included, and the reclaiming of drained dead flows must reproduce
// them bit for bit, live and through journal recovery.

// pinStep is one scripted command; a line starting with '!' must be
// rejected, every other line must be accepted.
type pinStep struct {
	at   uint64
	line string
}

type pinnedRun struct {
	name    string
	cfg     SimConfig
	steps   []pinStep
	total   uint64
	hash    uint64
	deliv   uint64
	ctr     fabric.Counters
	midLive bool // some lease must expire with packets still in its source queue
}

// churnSteps is Bernoulli-only churn concentrated on three outputs:
// every round adds a short-leased overloaded reservation, every third
// round also removes the previous round's. Offered load sits at the
// three outputs' capacity, so leases run out with packets still queued
// and the dead flows drain at best effort next to their successors.
func churnSteps() []pinStep {
	var s []pinStep
	for r := 0; r < 96; r++ {
		at := uint64(100 + 120*r)
		src := r % 8
		dst := (r*5 + 1) % 3
		if dst == src {
			dst = 3
		}
		s = append(s, pinStep{at, fmt.Sprintf("add gb %d %d rate=0.1 len=4 load=0.8 lease=%d", src, dst, 300+100*(r%4))})
		if r%3 == 2 {
			s = append(s, pinStep{at, fmt.Sprintf("remove %d", r)}) // round r-1's add
		}
	}
	return s
}

// closedLoopSteps adds and removes users= reservations between open-loop
// ones, so closed and open loops interleave in one injection group's
// index order and a closed loop sits between two open ones of the same
// source set.
func closedLoopSteps() []pinStep {
	return []pinStep{
		{100, "add gb 0 1 rate=0.2 len=8 load=0.3"},
		{150, "add gb 1 2 rate=0.3 len=8 users=3"},
		{200, "add gb 2 1 rate=0.2 len=8"},
		{400, "add gl 3 1 rate=0.04 len=4 latency=400 burst=2 users=2"},
		{600, "add gb 4 2 rate=0.2 len=4 load=0.5 lease=2000"},
		{700, "add gb 0 2 rate=0.1 len=8 users=2"},
		{3000, "remove 2"},
		{3100, "add gb 1 3 rate=0.3 len=8 users=5"},
		{3200, "add gb 5 2 rate=0.2 len=8"},
		{3300, "add gb 0 3 rate=0.1 len=4 load=0.3"},
		{5000, "remove 4"},
		{5000, "remove 6"},
		{5200, "add gb 6 1 rate=0.1 len=8 users=2 lease=1500"},
		{5300, "add gb 7 1 rate=0.1 len=4"},
		{5400, "add gl 3 2 rate=0.04 len=4 latency=400 burst=2"},
		{8000, "remove 1"},
		{8100, "add gb 0 1 rate=0.2 len=8 users=4"},
		{8200, "resize 7 rate=0.15"},
		{9000, "remove 7"},
		{9100, "add gb 1 3 rate=0.2 len=8 load=0.4"},
		{11000, "remove 13"},
		{11000, "add gb 0 1 rate=0.2 len=8 load=0.6"},
	}
}

// failStopSteps runs the degrade policy through a budget shrink, an
// input and an output fail-stop (pinnedRuns' fault schedule), and a
// flip to reject that revokes what no longer fits.
func failStopSteps() []pinStep {
	return []pinStep{
		{100, "add gb 0 1 rate=0.3 len=8 load=0.5"},
		{100, "add gb 2 1 rate=0.3 len=8 lease=4000"},
		{150, "add gb 4 1 rate=0.2 len=8 users=4"},
		{200, "add gl 3 1 rate=0.04 len=4 latency=400 burst=2"},
		{300, "add gb 4 2 rate=0.4 len=8 load=0.6"},
		{400, "add gb 5 2 rate=0.4 len=8"},
		{450, "!add gb 6 2 rate=0.4 len=8"},
		{500, "add gb 6 3 rate=0.5 len=8 load=0.7"},
		{600, "add gb 7 3 rate=0.3 len=8 users=3"},
		{2000, "budget 1 share=0.5"},
		{2500, "!add gb 5 1 rate=0.1 len=8"},
		{5000, "budget 2 share=0.3"},
		{6500, "add gb 1 5 rate=0.3 len=8 load=0.5"},
		{9000, "policy reject"},
		{9500, "add gb 5 6 rate=0.2 len=8"},
		{9600, "!add gb 5 3 rate=0.2 len=8"},
		{10000, "policy degrade"},
		{10500, "add gb 2 1 rate=0.15 len=8 load=0.5 lease=1000"},
	}
}

func pinnedRuns() []pinnedRun {
	return []pinnedRun{
		{
			name:    "bernoulli-churn",
			cfg:     SimConfig{Radix: 8, Seed: 7, SnapEvery: 3000},
			steps:   churnSteps(),
			total:   20000,
			midLive: true,
			hash:    0xa7ef5a9522581446,
			deliv:   6518,
			ctr:     fabric.Counters{Injected: 0x1976, Admitted: 0x1976, Delivered: 0x1976, Dropped: 0x0, ArbCycles: 0x1976, IdleCycles: 0x1f1b2, DataCycles: 0x65d8, SkippedOutputs: 0x1f1b2, SkippedAdmits: 0x23910},
		},
		{
			// Re-pinned when closed loops stopped crediting packets of an
			// earlier flow on their key: `remove 1` at 8000 leaves 0->1 GB
			// packets queued, and the `users=4` reservation added on that key
			// at 8100 counted their deliveries as its own. Before the fix:
			// hash 0x62db6ed2669d54e6, deliv 2740, Injected 0xc34, Admitted
			// 0xabf, Delivered 0xab4, ArbCycles 0x232d, IdleCycles and
			// SkippedOutputs 0x14d73, DataCycles 0x44e0, SkippedAdmits 0x19d1a.
			name:  "closed-loop-between-open-loop",
			cfg:   SimConfig{Radix: 8, Seed: 11, SnapEvery: 2500},
			steps: closedLoopSteps(),
			total: 14000,
			hash:  0xd3d674d8d1906db7,
			deliv: 2751,
			ctr:   fabric.Counters{Injected: 0xc25, Admitted: 0xaca, Delivered: 0xabf, Dropped: 0x0, ArbCycles: 0x2338, IdleCycles: 0x14d54, DataCycles: 0x44f4, SkippedOutputs: 0x14d54, SkippedAdmits: 0x19d04},
		},
		{
			name: "fail-stop-degrade",
			cfg: SimConfig{Radix: 8, Seed: 42, SnapEvery: 2000, Degrade: true,
				Faults: &faults.Config{Seed: 9, FailStops: []faults.FailStop{
					{Input: true, Port: 4, At: 4000},
					{Input: false, Port: 3, At: 7000},
				}}},
			steps: failStopSteps(),
			total: 12000,
			hash:  0x3880a7951b85052e,
			deliv: 2633,
			ctr:   fabric.Counters{Injected: 0xac8, Admitted: 0xa58, Delivered: 0xa49, Dropped: 0x4c, ArbCycles: 0x143f, IdleCycles: 0xfe18, DataCycles: 0x5121, SkippedOutputs: 0xfe18, SkippedAdmits: 0x15e98},
		},
	}
}

// drive applies the steps at their cycles and advances to total. probe,
// if set, runs at every step boundary before the step's command.
func (r pinnedRun) drive(t *testing.T, p *Plane, probe func()) {
	t.Helper()
	for _, s := range r.steps {
		if err := p.AdvanceTo(noc.CycleOf(s.at)); err != nil {
			t.Fatal(err)
		}
		if probe != nil {
			probe()
		}
		line, wantOK := strings.CutPrefix(s.line, "!")
		wantOK = !wantOK
		cmd, err := ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		if res := p.Apply(cmd); res.OK != wantOK {
			t.Fatalf("@%d %q: %s", s.at, s.line, res)
		}
	}
	if err := p.AdvanceTo(noc.CycleOf(r.total)); err != nil {
		t.Fatal(err)
	}
}

func (r pinnedRun) check(t *testing.T, how string, p *Plane) {
	t.Helper()
	if p.TraceHash() != r.hash || p.Delivered() != r.deliv || p.Counters() != r.ctr {
		t.Errorf("%s run diverged from the pinned polled engine:\n got hash: 0x%016x, deliv: %d,\n     ctr: %#v\nwant hash: 0x%016x, deliv: %d,\n     ctr: %#v",
			how, p.TraceHash(), p.Delivered(), p.Counters(), r.hash, r.deliv, r.ctr)
	}
}

// TestPinnedTraces runs each pinned script with a journal attached and
// then recovers that journal: both planes must land on the constants.
func TestPinnedTraces(t *testing.T) {
	for _, r := range pinnedRuns() {
		t.Run(r.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			jr, err := CreateJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := New(r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.AttachJournal(jr, true); err != nil {
				t.Fatal(err)
			}
			// Flow f (AddFlow order) carries reservation f+1: every accepted
			// add takes the next id. A flow whose reservation has left the
			// table but whose source queue still holds packets is a lease
			// that ran out (or a remove that landed) mid-queue.
			midQueue := 0
			r.drive(t, p, func() {
				for f := 0; uint64(f) < p.stats.Admitted; f++ {
					if p.tab.Get(uint64(f+1)) == nil && p.sw.SourceQueueLen(f) > 0 {
						midQueue++
					}
				}
			})
			if err := p.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := p.CloseJournal(); err != nil {
				t.Fatal(err)
			}
			if r.midLive && (midQueue == 0 || p.Stats().Expired == 0) {
				t.Fatalf("script lost coverage: %d dead-flow-with-queue observations, stats %+v", midQueue, p.Stats())
			}
			r.check(t, "live", p)

			q, warn, err := RecoverFile(path, ReplayOptions{})
			if err != nil || warn != "" || q == nil {
				t.Fatalf("recover: plane=%v warn=%q err=%v", q != nil, warn, err)
			}
			defer q.CloseJournal()
			r.check(t, "recovered", q)
		})
	}
}

// callCounter counts every call the switch's source set makes on a
// reservation's generator, through any of its faces.
type callCounter struct {
	s traffic.Scheduler
	n *uint64
}

func (c *callCounter) Tick(now noc.Cycle, queued int) *noc.Packet {
	*c.n++
	return c.s.Tick(now, queued)
}

func (c *callCounter) NextArrival(from noc.Cycle, queued int) (noc.Cycle, bool) {
	*c.n++
	return c.s.NextArrival(from, queued)
}

func (c *callCounter) Emit(now noc.Cycle) *noc.Packet {
	*c.n++
	return c.s.Emit(now)
}

// TestGeneratorCallsFlatInHistory: what a cycle costs in generator calls
// is set by the reservations that are live in it. A plane that has
// served 500 add/remove rounds makes, over the next 10 000 cycles,
// exactly the calls of a fresh plane holding the same live set — not one
// poll of a detached flow's generator. Counts only, no clocks.
func TestGeneratorCallsFlatInHistory(t *testing.T) {
	const rounds, window = 500, 10000
	liveSet := []string{
		"add gb 0 1 rate=0.2 len=8 load=0.3",
		"add gl 3 1 rate=0.04 len=4 latency=400 burst=2",
		"add gb 1 2 rate=0.3 len=8 users=3",
		"add gb 2 3 rate=0.2 len=8",
	}
	apply := func(p *Plane, line string) uint64 {
		t.Helper()
		cmd, err := ParseCommand(line)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Apply(cmd)
		if !res.OK {
			t.Fatalf("%q: %s", line, res)
		}
		return res.ID
	}
	// The live set takes ids 1-4 on both planes, so its generators draw
	// from the same seeds; the churn runs on ports 4-7.
	callsAfter := func(churn int) uint64 {
		var calls uint64
		p, err := New(SimConfig{Radix: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		p.wrapSource = func(g traffic.Generator) traffic.Generator {
			return &callCounter{g.(traffic.Scheduler), &calls}
		}
		for _, line := range liveSet {
			apply(p, line)
		}
		for r := 0; r < churn; r++ {
			src := 4 + r%4
			dst := 4 + (src-4+1+r/4%3)%4
			line := fmt.Sprintf("add gb %d %d rate=0.1 len=4 load=0.4", src, dst)
			if r%5 == 4 {
				line += " users=2"
			}
			id := apply(p, line)
			if err := p.Advance(30); err != nil {
				t.Fatal(err)
			}
			apply(p, fmt.Sprintf("remove %d", id))
			if err := p.Advance(20); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.AdvanceTo(noc.CycleOf(rounds*50 + 2000)); err != nil {
			t.Fatal(err)
		}
		calls = 0
		if err := p.Advance(window); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	fresh, churned := callsAfter(0), callsAfter(rounds)
	if fresh < window { // four live reservations make more calls than cycles
		t.Fatalf("fresh plane made %d generator calls in %d cycles: the counter is not wired", fresh, window)
	}
	if churned != fresh {
		t.Fatalf("after %d add/remove rounds the plane makes %d generator calls per %d cycles, a fresh plane with the same live reservations %d",
			rounds, churned, window, fresh)
	}
}
