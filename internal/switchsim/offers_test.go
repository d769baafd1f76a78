package switchsim

import (
	"slices"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// Standing offers are a way of not re-deriving what has not changed. What
// they skip survives here as the oracle: after every cycle's refresh,
// scanOffers asks every input for its request, as the serial walk did
// every cycle before offers persisted, and holds each output's want mask
// and the cached requests behind it to the scan — input set, class and
// packet pointer, in ascending input order.
func scanOffers(t *testing.T, sw *Switch, now noc.Cycle) {
	t.Helper()
	// A head sitting out its backoff marks its input at every refresh
	// until its deadline, so the scan's own questions mark nothing new.
	marked := slices.Clone(sw.offers.Dirty())
	scan := make([][]arb.Request, len(sw.outputs))
	for _, in := range sw.inputs {
		dst, req, ok := sw.currentRequest(in.id, now)
		if ok {
			scan[dst] = append(scan[dst], req)
		}
		if _, _, offered := sw.offers.Standing(in.id); offered != ok {
			t.Fatalf("cycle %d: input %d offered=%v, scan says %v", now, in.id, offered, ok)
		}
	}
	for _, out := range sw.outputs {
		got, want := sw.offers.Requests(out.id, nil), scan[out.id]
		if len(got) != len(want) {
			t.Fatalf("cycle %d: output %d has %d standing offers %v, scan finds %d %v",
				now, out.id, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle %d: output %d offer %d is %+v, scan finds %+v", now, out.id, i, got[i], want[i])
			}
		}
		if arb.MaskHas(sw.offers.Offered(), out.id) != (len(want) > 0) {
			t.Fatalf("cycle %d: output %d offered bit %v with %d requesters",
				now, out.id, arb.MaskHas(sw.offers.Offered(), out.id), len(want))
		}
	}
	if !slices.Equal(marked, sw.offers.Dirty()) {
		t.Fatalf("cycle %d: inputs marked after the refresh %x, the scan's questions mark %x",
			now, marked, sw.offers.Dirty())
	}
}

// runScanned drives sw for the given cycles with the oracle installed.
func runScanned(t *testing.T, sw *Switch, cycles noc.Cycle) {
	t.Helper()
	sw.afterRefresh = func(now noc.Cycle) { scanOffers(t, sw, now) }
	sw.Run(cycles)
	if err := sw.Err(); err != nil {
		t.Fatalf("engine froze: %v", err)
	}
}

// offerScenarios is the buildSkipSwitch part of TestOffersMatchScan's
// matrix, which TestRefusalMemoNeverHidesAHead runs too.
func offerScenarios() []skipScenario {
	return []skipScenario{
		{name: "saturatedRadix8", radix: 8, cycles: 3000},
		{name: "midLoadRadix64", radix: 64, load: 0.1, cycles: 2000},
		{name: "saturatedRadix70", radix: 70, cycles: 1500},
		{name: "lowLoadRadix70", radix: 70, load: 0.02, cycles: 3000},
		{name: "chainingRadix8", radix: 8, chaining: true, cycles: 3000},
		{name: "chainingRadix64", radix: 64, chaining: true, load: 0.1, cycles: 2000},
		{name: "gateRadix8", radix: 8, cycles: 3000,
			gate: func(now noc.Cycle, p *noc.Packet) bool { return (uint64(now)+uint64(p.Src))%3 != 0 }},
	}
}

// TestOffersMatchScan runs the oracle over every event that can change an
// offer: admission, grant and completion at one and two mask words,
// chained grants of inputs freed in the same cycle, a preemption NACK, a
// gate that holds admissions back, CRC retries sitting out their backoff,
// an input and an output fail-stop, and flows attached and retired
// mid-run.
func TestOffersMatchScan(t *testing.T) {
	for _, sc := range offerScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			sw := buildSkipSwitch(t, sc, nil)
			runScanned(t, sw, sc.cycles)
			if sw.Delivered == 0 {
				t.Fatal("scenario delivered nothing")
			}
			if sc.chaining && sw.Chained == 0 {
				t.Fatal("scenario chained nothing")
			}
		})
	}
	t.Run("glOverStandingGB", func(t *testing.T) {
		// Inputs 0 and 1 both stream GB packets to output 2, so one of
		// them always waits with a standing offer; each also fires GL
		// packets at output 2, which must replace the waiting GB request
		// in place, the destination being the same.
		vticks := []noc.VTime{40, 40, 0, 0, 0, 0, 0, 0}
		sw := mustNew(t, testConfig(), ssvcGLFactory(8, vticks, noc.FlowSpec{Rate: 0.05, PacketLength: 2}.Vtick(), 2))
		var seq traffic.Sequence
		swapped := 0
		for src := 0; src < 2; src++ {
			addFlow(t, sw, backloggedGB(&seq, src, 2, 4, 0.1))
			gl := noc.FlowSpec{Src: src, Dst: 2, Class: noc.GuaranteedLatency, Rate: 0.02, PacketLength: 2}
			addFlow(t, sw, traffic.Flow{Spec: gl, Gen: traffic.NewBernoulli(&seq, gl, 0.02, uint64(src))})
		}
		sw.afterRefresh = func(now noc.Cycle) {
			scanOffers(t, sw, now)
			for _, in := range sw.inputs[:2] {
				if _, req, ok := sw.offers.Standing(in.id); ok && req.Class == noc.GuaranteedLatency && sw.BufferOccupancy(in.id, noc.GuaranteedBandwidth, 2) > 0 {
					swapped++
				}
			}
		}
		sw.Run(3000)
		if swapped == 0 {
			t.Fatal("no GL head ever stood in for a waiting GB offer")
		}
	})
	t.Run("preemption", func(t *testing.T) {
		sw := preemptRig(nil).engine(t)
		runScanned(t, sw, 400)
		if sw.Preempted == 0 {
			t.Fatal("scenario exercised no preemption")
		}
	})
	t.Run("faults", func(t *testing.T) {
		sw := buildSkipSwitch(t, skipScenario{radix: 8, chaining: true}, nil)
		if err := sw.SetFaults(faults.Config{
			Seed:        7,
			CorruptProb: 0.05,
			Stalls:      []faults.StallWindow{{Port: 3, From: 500, Until: 700}},
			FailStops:   []faults.FailStop{{Input: true, Port: 2, At: 1000}, {Port: 6, At: 2000}},
		}); err != nil {
			t.Fatal(err)
		}
		held := 0
		sw.afterRefresh = func(now noc.Cycle) {
			scanOffers(t, sw, now)
			for _, in := range sw.inputs {
				for _, q := range in.gb {
					if q == nil {
						continue
					}
					if p := q.Head(); p != nil && p.HoldUntil > now {
						held++
					}
				}
			}
		}
		sw.Run(3000)
		if err := sw.Err(); err != nil {
			t.Fatalf("engine froze: %v", err)
		}
		if tot := sw.FaultTotals(); tot.Retransmissions == 0 || held == 0 {
			t.Fatalf("scenario held no head in backoff: %d retransmissions, %d held head-cycles", tot.Retransmissions, held)
		}
		if sw.Dropped == 0 {
			t.Fatal("fail-stops flushed nothing")
		}
	})
	t.Run("dynamicFlows", func(t *testing.T) {
		sw := buildSkipSwitch(t, skipScenario{radix: 8, load: 0.1}, nil)
		runScanned(t, sw, 500)
		var seq traffic.Sequence
		spec := noc.FlowSpec{Src: 3, Dst: 6, Class: noc.GuaranteedBandwidth, Rate: 0.2, PacketLength: 4}
		late := sw.Flows()
		addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewTrace(&seq, spec, []noc.Cycle{510, 520, 530, 900, 901, 902})})
		before := sw.Delivered
		runScanned(t, sw, 500) // the trace has emitted everything by cycle 902
		sw.RetireFlow(late)
		runScanned(t, sw, 1000)
		if sw.SourceQueueLen(late) != 0 || sw.Delivered == before {
			t.Fatalf("late flow left %d packets queued, %d delivered since it was added",
				sw.SourceQueueLen(late), sw.Delivered-before)
		}
	})
}

// TestOfferEvalsFollowGrants pins what the standing offers buy on the
// benchmark's saturated shape: 56 inputs with 8 backlogged GB flows each
// onto 8 hot outputs, so some 48 inputs wait at any time. Re-deriving
// every waiter's offer every cycle cost one evaluation per waiter; now a
// cycle costs one per completion (the freed input's next offer) plus one
// per packet admitted behind a waiting head, and a packet admitted at a
// busy input costs nothing until that input completes.
func TestOfferEvalsFollowGrants(t *testing.T) {
	const radix, gbInputs, hot = 64, 56, 8
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
	sw.OnRelease(seq.Recycle)
	sw.Run(2000) // fill the buffers
	const cycles = 20000
	waiting := 0
	sw.afterRefresh = func(noc.Cycle) {
		for _, out := range sw.outputs {
			waiting += arb.MaskCount(sw.offers.Want(out.id))
		}
	}
	evals, granted := sw.offers.Evals, sw.ArbCycles
	sw.Run(cycles)
	perCycle := float64(sw.offers.Evals-evals) / cycles
	t.Logf("%.2f offer evaluations, %.2f arbitrations, %.1f standing offers per cycle",
		perCycle, float64(sw.ArbCycles-granted)/cycles, float64(waiting)/cycles)
	if float64(waiting)/cycles <= 40 {
		t.Fatalf("fixture is not saturated: %.1f inputs wait per cycle, want more than 40", float64(waiting)/cycles)
	}
	if perCycle >= 8 {
		t.Fatalf("%.2f offer evaluations per cycle with %.1f inputs waiting, want under 8", perCycle, float64(waiting)/cycles)
	}
}
