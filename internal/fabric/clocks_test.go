package fabric

import (
	"slices"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// fakeClock is an arbiter whose Tick does work only from its announced
// deadline on: it logs the cycle and draws its next deadline, now and
// then NeverTick. An early Tick is the no-op the contract requires, and is
// only counted.
type fakeClock struct {
	rng   uint64
	next  noc.Cycle
	log   []noc.Cycle
	calls int
}

func (f *fakeClock) Arbitrate(noc.Cycle, []arb.Request) int { return -1 }
func (f *fakeClock) Granted(noc.Cycle, arb.Request)         {}
func (f *fakeClock) NextTick() noc.Cycle                    { return f.next }

func (f *fakeClock) Tick(now noc.Cycle) {
	f.calls++
	if now < f.next {
		return
	}
	f.log = append(f.log, now)
	f.rng = f.rng*6364136223846793005 + 1442695040888963407
	if r := f.rng >> 33; r%16 == 0 {
		f.next = arb.NeverTick
	} else {
		f.next = now + 1 + noc.Cycle(r%40)
	}
}

// everyCycle hides a fakeClock's deadline, as an arbiter without the
// capability: the clock must then tick it every cycle.
type everyCycle struct{ arb.Arbiter }

// TestClocksMatchEveryCycle runs fake arbiters announcing random
// deadlines, some of them NeverTick from the start, under a Clocks and
// under the every-cycle oracle (every deadline hidden): each arbiter's
// log of the ticks that did work must be the same. With an arbiter that
// announces nothing in the set, every cycle must tick everything; without
// one, the deadline run must make fewer calls.
func TestClocksMatchEveryCycle(t *testing.T) {
	const cycles = 3000
	for seed := uint64(1); seed <= 8; seed++ {
		for _, perCycle := range []bool{false, true} {
			build := func(hide bool) (*Clocks, []*fakeClock) {
				var c Clocks
				var fakes []*fakeClock
				for i := uint64(0); i < 2+seed%5; i++ {
					f := &fakeClock{rng: seed<<8 | i}
					if i%3 == 2 {
						f.next = arb.NeverTick
					}
					fakes = append(fakes, f)
					if hide {
						c.Add(everyCycle{f})
					} else {
						c.Add(f)
					}
				}
				if perCycle {
					f := &fakeClock{rng: seed}
					fakes = append(fakes, f)
					c.Add(everyCycle{f})
				}
				return &c, fakes
			}
			got, fakes := build(false)
			want, oracle := build(true)
			for now := noc.Cycle(0); now < cycles; now++ {
				got.Tick(now)
				want.Tick(now)
			}
			calls, oracleCalls, work := 0, 0, 0
			for i := range fakes {
				if !slices.Equal(fakes[i].log, oracle[i].log) {
					t.Fatalf("seed %d perCycle=%v: arbiter %d ticked at %v, every-cycle oracle at %v",
						seed, perCycle, i, fakes[i].log, oracle[i].log)
				}
				calls += fakes[i].calls
				oracleCalls += oracle[i].calls
				work += len(fakes[i].log)
			}
			if oracleCalls != len(fakes)*cycles {
				t.Fatalf("the oracle made %d calls, want %d", oracleCalls, len(fakes)*cycles)
			}
			switch {
			case work == 0:
				t.Fatalf("seed %d: no arbiter ever did work", seed)
			case perCycle && calls != oracleCalls:
				t.Errorf("seed %d: an arbiter without a deadline got the set %d calls, want every cycle's %d", seed, calls, oracleCalls)
			case !perCycle && calls >= oracleCalls:
				t.Errorf("seed %d: the deadline run made %d calls, no fewer than every cycle's %d", seed, calls, oracleCalls)
			}
		}
	}
}
