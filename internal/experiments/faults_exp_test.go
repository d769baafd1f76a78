package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"swizzleqos/internal/fabric"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// TestFaultsAcceptance checks the experiment's QoS-degradation contract
// at reduced run length: under an input fail-stop, every surviving GB
// flow settles within 5% of its recomputed (post-redistribution)
// reservation, the degraded GL bound holds, and the injected corruption
// is visible in the counters.
func TestFaultsAcceptance(t *testing.T) {
	o := Options{Cycles: 20000, Warmup: 2000, Seed: 1, Workers: 2}
	results := Faults(o)
	if len(results) != 3 {
		t.Fatalf("got %d outcomes, want one per counter policy", len(results))
	}
	var total float64
	for _, r := range faultGBRates {
		total += r
	}
	for _, oc := range results {
		if oc.Err != nil {
			t.Errorf("%s: engine froze: %v", oc.Policy, oc.Err)
			continue
		}
		// The acceptance bar from the issue: post-redistribution
		// throughput within 5% of the recomputed reservation.
		if oc.AfterMinAdherence < 0.95 {
			t.Errorf("%s: after-phase min adherence %.3f < 0.95", oc.Policy, oc.AfterMinAdherence)
		}
		if oc.RecoveryCycles < 0 {
			t.Errorf("%s: surviving flows never recovered", oc.Policy)
		}
		if !oc.GL.Holds() {
			t.Errorf("%s: GL verdict %+v: the degraded bound does not hold", oc.Policy, oc.GL)
		}
		if oc.Faults.Corruptions == 0 {
			t.Errorf("%s: no corruption injected", oc.Policy)
		}
		// Redistribution conserves total reserved bandwidth and zeroes
		// the failed input.
		var got float64
		for _, r := range oc.Recomputed {
			got += r
		}
		if math.Abs(got-total) > 1e-9 {
			t.Errorf("%s: redistributed total %.6f, want %.6f", oc.Policy, got, total)
		}
		if oc.Recomputed[faultFailedInput] != 0 {
			t.Errorf("%s: failed input still holds reservation %.3f",
				oc.Policy, oc.Recomputed[faultFailedInput])
		}
	}
}

// sickEngine is a minimal fabric.Engine that reports a terminal error,
// standing in for a frozen simulator.
type sickEngine struct {
	fabric.Counters
	fabric.Hooks
	err error
}

func (e *sickEngine) Step()                      {}
func (e *sickEngine) Run(noc.Cycle)              {}
func (e *sickEngine) Now() noc.Cycle             { return 0 }
func (e *sickEngine) AddFlow(traffic.Flow) error { return nil }
func (e *sickEngine) Err() error                 { return e.err }

var _ fabric.Engine = (*sickEngine)(nil)
var _ fabric.ErrorReporter = (*sickEngine)(nil)

// TestFaultsGLNeedsEvidence: in a run this short no GL packet is
// delivered after the settle window, so no policy's GL bound may hold.
func TestFaultsGLNeedsEvidence(t *testing.T) {
	for _, oc := range Faults(Options{Cycles: 100, Warmup: 10}) {
		if oc.Err == nil && oc.GL.Holds() {
			t.Errorf("%s: GL bound held on %d GL packets", oc.Policy, oc.GL.Evidence)
		}
	}
}

// TestEngineErrorFailsVerdict: a run whose engine failed does not hold,
// whatever its verdict says, both in GLOutcome.Holds and in the faults
// table's held? column.
func TestEngineErrorFailsVerdict(t *testing.T) {
	held := stats.Verdict{Evidence: 3}
	froze := errors.New("engine froze")
	for _, c := range []struct {
		gl   stats.Verdict
		err  error
		want bool
	}{
		{held, nil, true},
		{held, froze, false},
		{stats.Verdict{Evidence: 3, Failing: 1}, nil, false},
		{stats.Verdict{}, nil, false}, // no evidence
	} {
		if got := (GLOutcome{GL: c.gl, Err: c.err}).Holds(); got != c.want {
			t.Errorf("GLOutcome{GL: %+v, Err: %v}.Holds() = %v, want %v", c.gl, c.err, got, c.want)
		}
		var csv strings.Builder
		if err := FaultsTable([]FaultOutcome{{Policy: "p", GL: c.gl, Err: c.err}}).RenderCSV(&csv); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
		header, row := strings.Split(lines[0], ","), strings.Split(lines[1], ",")
		col := slices.Index(header, "held?")
		if col < 0 {
			t.Fatalf("faults table has no held? column: %q", lines[0])
		}
		if got, want := row[col], fmt.Sprint(c.want); got != want {
			t.Errorf("faults table with GL %+v, Err %v: held? = %s, want %s", c.gl, c.err, got, want)
		}
	}
}

// TestRunCollectedSurfacesEngineError pins the error path every
// experiment shares: a sick engine's terminal error must come back from
// run and runCollected instead of being silently swallowed.
func TestRunCollectedSurfacesEngineError(t *testing.T) {
	sick := errors.New("engine froze")
	var seq traffic.Sequence
	o := Options{Cycles: 10, Warmup: 1}
	if err := run(&sickEngine{err: sick}, &seq, o, nil); !errors.Is(err, sick) {
		t.Fatalf("run returned %v, want the engine error", err)
	}
	if _, err := runCollected(&sickEngine{err: sick}, &seq, o); !errors.Is(err, sick) {
		t.Fatalf("free runCollected returned %v, want the engine error", err)
	}
	sc := newSweepScratch()
	if _, err := sc.runCollected(&sickEngine{err: sick}, &seq, o); !errors.Is(err, sick) {
		t.Fatalf("scratch runCollected returned %v, want the engine error", err)
	}
	if _, err := runCollected(&sickEngine{}, &seq, o); err != nil {
		t.Fatalf("healthy engine reported %v", err)
	}
}
