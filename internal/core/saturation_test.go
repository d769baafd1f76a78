package core

import (
	"math"
	"testing"

	"swizzleqos/internal/noc"
)

// These tests pin the auxVC saturation boundary (§3.1 "Finite Counters
// and Real Time Clock"): counters clamp at the ceiling instead of
// wrapping, and the Saturations() event counter advances exactly when
// the configured policy fires — never under SubtractRealTime, once per
// clamp under Halve and Reset.

func allPolicies() []CounterPolicy {
	return []CounterPolicy{SubtractRealTime, Halve, Reset}
}

// TestSSVCSaturationBoundaryPolicies walks one counter up to its
// ceiling grant by grant and checks the exact post-event state each
// policy prescribes.
func TestSSVCSaturationBoundaryPolicies(t *testing.T) {
	for _, policy := range allPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			// CounterBits 6 / SigBits 2: quantum 16, ceiling 63. Vtick 30
			// reaches the ceiling on the third grant (30, 60, clamp).
			s := NewSSVC(Config{Radix: 2, CounterBits: 6, SigBits: 2,
				Policy: policy, Vticks: []VTime{30, 5}})
			s.Granted(0, gbReq(1)) // give input 1 some state to halve/reset
			s.Granted(0, gbReq(0))
			s.Granted(0, gbReq(0))
			if got := s.Aux(0); got != 60 {
				t.Fatalf("pre-boundary aux[0] = %d, want 60", got)
			}
			if got := s.Saturations(); got != 0 {
				t.Fatalf("saturations = %d before any clamp", got)
			}

			s.Granted(0, gbReq(0)) // 60+30 = 90 > 63: clamp + policy event

			wantAux0, wantAux1, wantSat := VTime(63), VTime(5), uint64(0)
			switch policy {
			case Halve:
				wantAux0, wantAux1, wantSat = 31, 2, 1 // every counter halves
			case Reset:
				wantAux0, wantAux1, wantSat = 0, 0, 1 // every counter zeroes
			}
			if got := s.Aux(0); got != wantAux0 {
				t.Errorf("aux[0] = %d after event, want %d", got, wantAux0)
			}
			if got := s.Aux(1); got != wantAux1 {
				t.Errorf("aux[1] = %d after event, want %d", got, wantAux1)
			}
			if got := s.Saturations(); got != wantSat {
				t.Errorf("saturations = %d after event, want %d", got, wantSat)
			}
		})
	}
}

// TestSSVCSaturationNoWrapAtHugeVtick drives the SatAdd path with a
// Vtick of MaxUint64: a plain addition would wrap the uint64 and land
// the counter back below the ceiling undetected; the saturating helper
// must clamp and trigger the policy instead.
func TestSSVCSaturationNoWrapAtHugeVtick(t *testing.T) {
	for _, policy := range allPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			s := NewSSVC(Config{Radix: 2, CounterBits: 9, SigBits: 3,
				Policy: policy, Vticks: []VTime{noc.VTime(math.MaxUint64), 1}})
			s.Granted(5, gbReq(0))
			if got := s.Aux(0); got > s.max {
				t.Fatalf("aux[0] = %d exceeds ceiling %d", got, s.max)
			}
			wantAux, wantSat := s.max, uint64(0)
			switch policy {
			case Halve:
				wantAux, wantSat = s.max/2, 1
			case Reset:
				wantAux, wantSat = 0, 1
			}
			if got := s.Aux(0); got != wantAux {
				t.Errorf("aux[0] = %d after huge-Vtick grant, want %d", got, wantAux)
			}
			if got := s.Saturations(); got != wantSat {
				t.Errorf("saturations = %d, want %d", got, wantSat)
			}
			// A second grant saturates again; only Halve/Reset count it.
			s.Granted(6, gbReq(0))
			if policy == SubtractRealTime {
				wantSat = 0
			} else {
				wantSat++
			}
			if got := s.Saturations(); got != wantSat {
				t.Errorf("saturations = %d after second clamp, want %d", got, wantSat)
			}
		})
	}
}

// FuzzSSVCSaturationModel replays arbitrary grant/tick scripts against
// a transparent model of the Granted counter update: the model predicts
// each clamp from the pre-grant state, and the arbiter's Saturations()
// counter must track the prediction exactly while no auxVC ever passes
// the ceiling. Vticks sit at and near MaxUint64 so nearly every grant
// exercises the saturation boundary.
func FuzzSSVCSaturationModel(f *testing.F) {
	f.Add([]byte{0x00}, uint8(0))
	f.Add([]byte{0x83, 0x02, 0xff, 0x41}, uint8(1))
	f.Add([]byte("saturate me repeatedly"), uint8(2))
	f.Fuzz(func(t *testing.T, script []byte, policySel uint8) {
		policy := allPolicies()[int(policySel)%3]
		vticks := []VTime{1, 60, noc.VTime(math.MaxUint64 / 2), noc.VTime(math.MaxUint64)}
		s := NewSSVC(Config{Radix: 4, CounterBits: 8, SigBits: 3,
			Policy: policy, Vticks: vticks})
		now := Cycle(0)
		var wantSat uint64
		for _, b := range script {
			if b&0x80 != 0 {
				now += Cycle(b & 0x3f)
				s.Tick(now)
			}
			i := int(b) % 4
			// Predict the clamp from the documented update rule:
			// aux <- max(aux, rel(now)) + Vtick, saturating at the ceiling.
			a := s.Aux(i)
			if r := s.rel(now); r > a {
				a = r
			}
			if noc.SatAdd(a, vticks[i]) > s.max && policy != SubtractRealTime {
				wantSat++
			}
			s.Granted(now, gbReq(i))
			if got := s.Saturations(); got != wantSat {
				t.Fatalf("saturations = %d after grant %d on input %d, model wants %d",
					got, b, i, wantSat)
			}
			for j := range vticks {
				if s.Aux(j) > s.max {
					t.Fatalf("aux[%d] = %d wrapped past ceiling %d", j, s.Aux(j), s.max)
				}
			}
		}
	})
}
