package switchsim

import (
	"testing"

	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// checkRefusals holds the source set's refusal memory to what it promises
// after a cycle: every flow it remembers has a head, and that head does
// not fit the buffer it is remembered to wait on, which is the buffer the
// head belongs in. It returns how many flows are remembered.
func checkRefusals(t *testing.T, sw *Switch) int {
	t.Helper()
	n := 0
	for i := 0; i < sw.Flows(); i++ {
		buf := sw.sources.Waiting(i)
		if buf == nil {
			continue
		}
		n++
		var p *noc.Packet
		if fq := sw.sources.Flow(i); fq != nil {
			p = fq.Peek()
		}
		if p == nil {
			t.Fatalf("cycle %d: flow %d is remembered to wait on a buffer with no head to admit", sw.Now(), i)
		}
		if want := sw.inputs[p.Src].bufferFor(p.Class, p.Dst); buf != want {
			t.Fatalf("cycle %d: flow %d's %v head for output %d waits on a buffer it does not belong in", sw.Now(), i, p.Class, p.Dst)
		}
		if buf.CanAccept(p.Length) {
			t.Fatalf("cycle %d: flow %d's head (packet %d, %d flits) fits its buffer (%d of %d flits used, %d reserved) and is hidden",
				sw.Now(), i, p.ID, p.Length, buf.Flits(), buf.Cap(), buf.Reserved())
		}
	}
	return n
}

// runRefusalChecked steps sw for the given cycles, checking the refusal
// memory after every one, and returns the remembered flows summed over
// the cycles.
func runRefusalChecked(t *testing.T, sw *Switch, cycles noc.Cycle) int {
	t.Helper()
	total := 0
	for c := noc.Cycle(0); c < cycles; c++ {
		sw.Step()
		if err := sw.Err(); err != nil {
			t.Fatalf("engine froze: %v", err)
		}
		total += checkRefusals(t, sw)
	}
	return total
}

// TestRefusalMemoNeverHidesAHead runs the refusal memory's invariant over
// the matrix of TestOffersMatchScan, the converging-VOQ shape added: no
// remembered flow's head may fit its buffer after any cycle. Saturated
// runs must remember something, or the check proves nothing: admission
// gates and fault schedules included, since a gate is asked only after the
// buffer accepts and a fail-stop forgets every refusal.
func TestRefusalMemoNeverHidesAHead(t *testing.T) {
	matrix := append(offerScenarios(), skipScenario{name: "convergingRadix64", radix: 64, hot: 4, cycles: 2000})
	for _, sc := range matrix {
		t.Run(sc.name, func(t *testing.T) {
			sw := buildSkipSwitch(t, sc, nil)
			remembered := runRefusalChecked(t, sw, sc.cycles)
			if sc.load == 0 && remembered == 0 {
				t.Fatal("a saturated switch remembered no refusal")
			}
		})
	}
	t.Run("preemption", func(t *testing.T) {
		runRefusalChecked(t, preemptRig(nil).engine(t), 400)
	})
	t.Run("faults", func(t *testing.T) {
		for _, cfg := range []faults.Config{{}, {
			Seed:        7,
			CorruptProb: 0.05,
			Stalls:      []faults.StallWindow{{Port: 3, From: 500, Until: 700}},
			FailStops:   []faults.FailStop{{Input: true, Port: 2, At: 1000}, {Port: 6, At: 2000}},
		}} {
			sw := buildSkipSwitch(t, skipScenario{radix: 8, chaining: true}, nil)
			if err := sw.SetFaults(cfg); err != nil {
				t.Fatal(err)
			}
			if remembered := runRefusalChecked(t, sw, 3000); remembered == 0 {
				t.Fatalf("fault schedule %+v: a saturated switch remembered no refusal", cfg)
			}
		}
	})
	t.Run("dynamicFlows", func(t *testing.T) {
		sw := buildSkipSwitch(t, skipScenario{radix: 8}, nil)
		remembered := runRefusalChecked(t, sw, 500)
		var seq traffic.Sequence
		// A late flow into a GB queue the saturated input 3 already fills,
		// retired while it still has packets queued.
		spec := noc.FlowSpec{Src: 3, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
		late := sw.Flows()
		addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(&seq, spec, 4)})
		remembered += runRefusalChecked(t, sw, 500)
		sw.RetireFlow(late)
		remembered += runRefusalChecked(t, sw, 1000)
		if sw.SourceQueueLen(late) != 0 {
			t.Fatalf("retired late flow left %d packets queued", sw.SourceQueueLen(late))
		}
		if remembered == 0 {
			t.Fatal("a saturated switch remembered no refusal")
		}
	})
}

// TestAdmitTriesFollowDrains pins what the refusal memory buys on the
// benchmark's saturated shape (xbar64_sat): 56 inputs with 8 backlogged
// GB flows each onto 8 hot outputs, and 8 inputs with one backlogged BE
// flow each onto 2 outputs. A grant at an input clears its admission skip
// and the next scan used to call try on every blocked head of the input
// again: 25.3 tries a cycle here for 2.27 admissions (19.6 on xbar64_sat
// itself). A flow is now tried only once the buffer that refused it has
// drained, which measures 4.53 tries a cycle for the same admissions.
func TestAdmitTriesFollowDrains(t *testing.T) {
	const radix, gbInputs, hot, beOutputs = 64, 56, 8, 2
	vticks := make([]noc.VTime, radix)
	for i := 0; i < gbInputs; i++ {
		vticks[i] = noc.FlowSpec{Rate: 0.0125, PacketLength: 4}.Vtick()
	}
	cfg := Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}
	sw := mustNew(t, cfg, ssvcFactory(radix, vticks))
	var seq traffic.Sequence
	for i := 0; i < gbInputs; i++ {
		for o := 0; o < hot; o++ {
			addFlow(t, sw, backloggedGB(&seq, i, radix-1-o, 4, 0.0125))
		}
	}
	for i := gbInputs; i < radix; i++ {
		addFlow(t, sw, backloggedBE(&seq, i, i%beOutputs, 2))
	}
	sw.OnRelease(seq.Recycle)
	sw.Run(2000) // fill the buffers
	const cycles = 20000
	tries, admitted := sw.sources.Tries(), sw.Admitted
	sw.Run(cycles)
	perCycle := float64(sw.sources.Tries()-tries) / cycles
	t.Logf("%.2f tries, %.2f admissions per cycle", perCycle, float64(sw.Admitted-admitted)/cycles)
	if perCycle >= 7 {
		t.Fatalf("%.2f admission tries per cycle, want under 7", perCycle)
	}
}
