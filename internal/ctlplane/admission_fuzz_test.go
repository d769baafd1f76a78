package ctlplane

import (
	"fmt"
	"strings"
	"testing"

	"swizzleqos/internal/ctlplane/admit"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// fuzzRadix keeps the op space small enough that random sequences
// collide on ports constantly — the interesting regime.
const fuzzRadix = 4

// checkAdmissionInvariants is the from-scratch oracle: it recomputes
// every budget sum and the Eq. 1-3 GL analysis directly from the
// table's reservation sets and fails on any over-commit, however the
// table got into its current state.
func checkAdmissionInvariants(tab *Table) error {
	seen := 0
	for o := 0; o < fuzzRadix; o++ {
		var admitted, granted, gl uint64
		for _, r := range tab.GB(o) {
			checked, err := admit.Check(r.Req, fuzzRadix, tab.cfg.LMax)
			if err != nil {
				return fmt.Errorf("output %d: reservation %d fails its check: %v", o, r.ID, err)
			}
			if want := costOf(checked); r.Cost != want {
				return fmt.Errorf("output %d: reservation %d cost %d, recomputed %d", o, r.ID, r.Cost, want)
			}
			if tab.Policy() == PolicyReject && r.GrantedCost != r.Cost {
				// Granted may exceed admitted only transiently under
				// PolicyDegrade (fail-stop fill: survivors absorb the
				// freed bandwidth until the next renormalize).
				return fmt.Errorf("output %d: reservation %d granted %d != admitted %d under PolicyReject", o, r.ID, r.GrantedCost, r.Cost)
			}
			admitted += r.Cost
			granted += r.GrantedCost
		}
		for _, r := range tab.GL(o) {
			gl += r.Cost
			if r.GrantedCost != r.Cost {
				return fmt.Errorf("output %d: GL reservation %d degraded (granted %d != %d); GL never degrades", o, r.ID, r.GrantedCost, r.Cost)
			}
		}
		// The hard over-commit invariant: granted bandwidth always fits
		// the budget. Admitted cost may exceed a shrunken budget only
		// under PolicyDegrade (grants are scaled down); under
		// PolicyReject admitted == granted must fit.
		if granted > tab.GBBudget(o) {
			return fmt.Errorf("output %d: granted %d Frame-units over budget %d", o, granted, tab.GBBudget(o))
		}
		if tab.Policy() == PolicyReject && admitted > tab.GBBudget(o) {
			return fmt.Errorf("output %d: admitted %d over budget %d under PolicyReject", o, admitted, tab.GBBudget(o))
		}
		if gl > tab.GLBudget() {
			return fmt.Errorf("output %d: GL %d Frame-units over share %d", o, gl, tab.GLBudget())
		}
		if rej := tab.glCheck(o, nil); rej != nil {
			return fmt.Errorf("output %d: admitted GL set fails its own Eq.1-3 analysis: %s", o, rej.Msg)
		}
		for _, set := range [2][]*Reservation{tab.GB(o), tab.GL(o)} {
			for _, r := range set {
				seen++
				if tab.Get(r.ID) != r {
					return fmt.Errorf("output %d: reservation %d not indexed by id", o, r.ID)
				}
			}
		}
	}
	if seen != tab.Len() {
		return fmt.Errorf("index holds %d reservations, sets hold %d", tab.Len(), seen)
	}
	return nil
}

// driveAdmission interprets a byte stream as a command sequence against
// a fresh table — adds, removes, resizes, budget moves, policy flips,
// fail-stops, and time advances with lease expiry — checking the
// oracle after every single step.
func driveAdmission(t interface{ Fatalf(string, ...any) }, data []byte) {
	tab, err := NewTable(TableConfig{
		Radix: fuzzRadix, LMax: 8, GLBufferFlits: 16,
		GBShare: 0.8, GLShare: 0.1, Policy: PolicyDegrade,
	})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	now := noc.Cycle(0)
	failStops := 0
	pick := func(b byte) *Reservation {
		// Deterministically pick the b-th live id in sorted order.
		st := tab.State()
		if len(st.Reservations) == 0 {
			return nil
		}
		return tab.Get(st.Reservations[int(b)%len(st.Reservations)].ID)
	}
	for i := 0; i+4 <= len(data); i += 4 {
		op, a, b, c := data[i]%8, data[i+1], data[i+2], data[i+3]
		switch op {
		case 0, 1: // add gb / gl
			req := FlowReq{
				Src:       int(a) % fuzzRadix,
				Dst:       int(b) % fuzzRadix,
				Class:     noc.GuaranteedBandwidth,
				Rate:      float64(c%32+1) / 32,
				PacketLen: int(c%8) + 1,
			}
			if op == 1 {
				req.Class = noc.GuaranteedLatency
				req.Rate = float64(c%8+1) / 256
				req.Latency = noc.Cycle(a%4+1) * 200
				req.Burst = int(b%3) + 1
			}
			var lease noc.Cycle
			if c%4 == 0 {
				lease = noc.Cycle(c%16+1) * 64
			}
			tab.Admit(req, lease, now)
		case 2: // remove
			if r := pick(a); r != nil {
				tab.Remove(r.ID, now)
			}
		case 3: // resize
			if r := pick(a); r != nil {
				tab.Resize(r.ID, float64(b%32+1)/32, noc.Cycle(c)*16, c%2 == 0, now)
			}
		case 4: // budget move
			tab.SetBudget(int(a)%fuzzRadix, float64(b%29)/32, now)
		case 5: // policy flip
			if a%2 == 0 {
				tab.SetPolicy(PolicyDegrade)
			} else {
				tab.SetPolicy(PolicyReject)
			}
		case 6: // fail-stop (bounded so some ports stay up)
			if failStops < 2 {
				failStops++
				tab.FailStop(faults.FailStop{Input: a%2 == 0, Port: int(b) % fuzzRadix, At: now})
			}
		case 7: // advance time; expire leases deterministically
			now += noc.Cycle(c%64) + 1
			st := tab.State()
			for _, r := range st.Reservations {
				if r.ExpiresAt != 0 && r.ExpiresAt <= now {
					tab.Remove(r.ID, now)
				}
			}
		}
		if err := checkAdmissionInvariants(tab); err != nil {
			t.Fatalf("op %d (byte %d) broke the table: %v", op, i, err)
		}
	}
}

// TestAdmissionModelFuzz runs many seeded random op sequences through
// the oracle on every `go test` (the native fuzz target below reuses
// the same interpreter for open-ended fuzzing).
func TestAdmissionModelFuzz(t *testing.T) {
	sequences := 300
	if testing.Short() {
		sequences = 30
	}
	for seed := 0; seed < sequences; seed++ {
		rng := traffic.NewRNG(uint64(seed)*2654435761 + 1)
		data := make([]byte, 4*200)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		driveAdmission(t, data)
	}
}

// FuzzAdmission is the native fuzz entry point:
//
//	go test -fuzz=FuzzAdmission ./internal/ctlplane/
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 0, 1, 255, 4, 2, 8, 0, 7, 0, 0, 63, 5, 1, 0, 0})
	f.Add([]byte{6, 0, 1, 0, 0, 1, 1, 16, 3, 0, 31, 2, 7, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		driveAdmission(t, data)
	})
}

// TestZeroReqIsHarmless pins the one admit.Req that code outside package
// admit can build without Check: the zero value costs nothing, and the
// Eq. 1-3 check refuses it, on an empty GL set and on an occupied one.
func TestZeroReqIsHarmless(t *testing.T) {
	if c := costOf(admit.Req{}); c != 0 {
		t.Fatalf("zero Req costs %d Frame units", c)
	}
	tab, err := NewTable(TableConfig{Radix: fuzzRadix, LMax: 8, GLBufferFlits: 16, GBShare: 0.8, GLShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, rej := tab.Admit(FlowReq{Src: 0, Dst: 1, Class: noc.GuaranteedLatency, Rate: 0.02, PacketLen: 4, Latency: 400, Burst: 1}, 0, 0); rej != nil {
		t.Fatalf("GL admit rejected: %+v", rej)
	}
	for o := 0; o < 2; o++ {
		if rej := tab.glCheck(o, &admit.Req{}); rej == nil || rej.Reason != ReasonBadRequest {
			t.Errorf("output %d: glCheck passed the zero Req (rej=%+v)", o, rej)
		}
	}
}

// typedReasons is every Reason a refused command may carry.
var typedReasons = map[Reason]bool{
	ReasonBadRequest: true, ReasonExists: true, ReasonNotFound: true, ReasonGBBudget: true,
	ReasonGLBudget: true, ReasonGLBound: true, ReasonPortDown: true, ReasonFrozen: true, ReasonJournal: true,
}

// FuzzCommandLine is FuzzAdmission's twin through the parsers: each line
// of the input goes through ParseCommand and, if it parses, Apply on a
// plane of fuzzRadix ports, five cycles after the one before. No command
// may panic or freeze the plane, a refusal must carry a typed Reason, and
// the admission table must pass the from-scratch oracle after each one.
//
//	go test -run '^$' -fuzz FuzzCommandLine ./internal/ctlplane/
func FuzzCommandLine(f *testing.F) {
	for _, seed := range []string{
		"add gb 0 1 rate=0.1 len=4 lease=18446744073709551615",
		"add gb 0 1 rate=0.1 len=4 users=4611686018427387904",
		"add gb 0 1 rate=0.1 len=4 users=2147483647", // the largest a 32-bit int parses
		"add gb 0 1 rate=0.3 len=8 load=0.5\nadd gb 2 1 rate=0.3 len=8 lease=4000\nresize 1 rate=0.2 lease=6000",
		"add gl 3 1 rate=0.04 len=4 latency=400 burst=2 users=2\nremove 1",
		"add gb 1 2 rate=0.3 len=8 users=3\nbudget 2 share=0.25\npolicy reject",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := New(SimConfig{Radix: fuzzRadix, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(text, "\n")
		if len(lines) > 16 {
			lines = lines[:16]
		}
		for _, line := range lines {
			if err := p.Advance(5); err != nil {
				t.Fatal(err)
			}
			cmd, err := ParseCommand(line)
			if err != nil {
				continue
			}
			if r := p.Apply(cmd); !r.OK && !typedReasons[r.Reason] {
				t.Fatalf("%q: untyped refusal %s", line, r)
			}
			if err := p.Err(); err != nil {
				t.Fatalf("%q froze the plane: %v", line, err)
			}
			if err := checkAdmissionInvariants(p.Table()); err != nil {
				t.Fatalf("%q broke the table: %v", line, err)
			}
		}
	})
}
