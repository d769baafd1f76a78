package core

import (
	"bytes"
	"math"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/wire"
)

// tickEager is Tick as it ran before the lazy epoch: at every quantum
// boundary one quantum is subtracted from each counter at once. Driven
// in place of Tick it never moves sub off zero, so the SSVC it runs on is
// the eager arbiter FuzzSSVCEpoch holds the lazy one to.
func (s *SSVC) tickEager(now Cycle) {
	if now < s.next {
		return
	}
	for noc.VTimeOfCycle(noc.SatSub(now, s.base)) >= s.quantum {
		for i := range s.aux {
			if s.aux[i] > s.quantum {
				s.aux[i] -= s.quantum
			} else {
				s.aux[i] = 0
			}
		}
		s.base += noc.CycleOfVTime(s.quantum)
		s.shiftPlanes()
	}
	s.next = s.base + noc.CycleOfVTime(s.quantum)
}

// epochWidths are FuzzSSVCEpoch's counter geometries: a fold every 4
// quanta, the benchmark's 12/4 bits (every 16), and 16 levels over a
// 2-cycle quantum.
var epochWidths = [][2]int{{6, 2}, {12, 4}, {5, 4}}

// epochVticks are the Vticks SetVticks installs: none, small, a quantum
// or so, and far past every ceiling.
var epochVticks = []VTime{0, 1, 3, 16, 40, 100, 255, 1000, 5000, math.MaxUint64}

// FuzzSSVCEpoch drives a lazy SSVC (Tick adds to sub) and an eager one
// (tickEager) through the same program and compares their AppendState
// bytes, Coarse and Aux after every op. prog[0] picks the geometry and
// the policy; each further byte is an op by its low two bits:
//
//	0: advance the clock, by op>>2 cycles below 48, else by (op>>2)-47
//	   quanta, and tick;
//	1: arbitrate the requests the next byte names (bit i: input i
//	   requests; bit 4+i: as best effort; op bit 2: input 0 as GL) and
//	   grant the winner;
//	2: SetVticks, input (op>>2)%4 to epochVticks[next byte];
//	3: snapshot both and restore each into a fresh arbiter.
func FuzzSSVCEpoch(f *testing.F) {
	// A fold exactly when sub passes max: 3 quanta, then 1 (6/2 bits),
	// with grants below the ceiling while sub is 48.
	f.Add([]byte{0, 1, 0x0f, 1, 0x0f, 1, 0x03, 200, 1, 0x01, 1, 0x02, 1, 0x0f, 192, 1, 0x0f, 3, 1, 0x0f})
	// Halve right after a fold, and again with sub not yet folded.
	f.Add([]byte{3, 1, 0x07, 1, 0x07, 204, 1, 0x01, 1, 0x08, 1, 0x07, 196, 1, 0x02, 1, 0x08, 3, 1, 0x0f, 1, 0x08})
	// Reset at 12/4 bits: a grant 2 quanta in, a 16-quantum jump, single
	// cycles.
	f.Add([]byte{7, 1, 0x0f, 1, 0x0e, 196, 1, 0x01, 252, 1, 0x08, 4, 8, 1, 0x0f, 1, 0x08, 3})
	// New Vticks, GL grants and best effort under SubtractRealTime.
	f.Add([]byte{2, 6, 9, 1, 0xff, 4, 8, 12, 5, 0x1f, 3, 10, 1, 1, 0xf0, 248, 1, 0x0f})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		w := epochWidths[int(prog[0])%len(epochWidths)]
		cfg := Config{
			Radix: 4, CounterBits: w[0], SigBits: w[1],
			Policy:   allPolicies()[int(prog[0])/len(epochWidths)%3],
			Vticks:   []VTime{3, 40, 700, 5000},
			EnableGL: true, GLVtick: 30, GLBurst: 2,
		}
		lazy, eager := NewSSVC(cfg), NewSSVC(cfg)
		now := Cycle(0)
		arg := func(pc *int) byte {
			if *pc+1 < len(prog) {
				*pc++
				return prog[*pc]
			}
			return 0
		}
		for pc := 1; pc < len(prog); pc++ {
			op := prog[pc]
			switch op % 4 {
			case 0:
				if j := Cycle(op >> 2); j < 48 {
					now += j
				} else {
					now += (j - 47) * noc.CycleOfVTime(lazy.quantum)
				}
				lazy.Tick(now)
				eager.tickEager(now)
			case 1:
				m := arg(&pc)
				var reqs []arb.Request
				for i := 0; i < cfg.Radix; i++ {
					if m&(1<<i) == 0 {
						continue
					}
					class := noc.GuaranteedBandwidth
					if m&(0x10<<i) != 0 {
						class = noc.BestEffort
					}
					if i == 0 && op&4 != 0 {
						class = noc.GuaranteedLatency
					}
					reqs = append(reqs, arb.Request{Input: i, Class: class, Packet: &noc.Packet{Src: i, Class: class, Length: 1}})
				}
				wl, we := lazy.Arbitrate(now, reqs), eager.Arbitrate(now, reqs)
				if wl != we {
					t.Fatalf("op %d at cycle %d: lazy picked %d, eager %d", pc, now.Uint(), wl, we)
				}
				if wl >= 0 {
					lazy.Granted(now, reqs[wl])
					eager.Granted(now, reqs[wl])
				}
			case 2:
				vt := append([]VTime(nil), lazy.cfg.Vticks...)
				vt[int(op>>2)%cfg.Radix] = epochVticks[int(arg(&pc))%len(epochVticks)]
				if err := lazy.SetVticks(vt); err != nil {
					t.Fatal(err)
				}
				if err := eager.SetVticks(vt); err != nil {
					t.Fatal(err)
				}
			case 3:
				restore := func(s *SSVC) *SSVC {
					fresh := NewSSVC(cfg)
					if err := fresh.RestoreState(wire.NewReader(s.AppendState(nil)), now); err != nil {
						t.Fatalf("op %d at cycle %d: %v", pc, now.Uint(), err)
					}
					return fresh
				}
				lazy, eager = restore(lazy), restore(eager)
			}
			if bl, be := lazy.AppendState(nil), eager.AppendState(nil); !bytes.Equal(bl, be) {
				t.Fatalf("op %d at cycle %d: lazy state %x, eager %x", pc, now.Uint(), bl, be)
			}
			for i := 0; i < cfg.Radix; i++ {
				if lazy.Aux(i) != eager.Aux(i) || lazy.Coarse(i) != eager.Coarse(i) {
					t.Fatalf("op %d at cycle %d: input %d lazy aux %d coarse %d, eager aux %d coarse %d",
						pc, now.Uint(), i, lazy.Aux(i).Uint(), lazy.Coarse(i), eager.Aux(i).Uint(), eager.Coarse(i))
				}
			}
			if lazy.sub > lazy.max {
				t.Fatalf("op %d at cycle %d: sub %d left unfolded past max %d", pc, now.Uint(), lazy.sub.Uint(), lazy.max.Uint())
			}
			checkLevelPlanes(t, lazy, "lazy")
			checkLevelPlanes(t, eager, "eager")
		}
	})
}
