// Package heaptest is the one measuring helper behind the
// TestSteadyStateAllocs tests of the engines, the arbiter kernel and the
// control plane: the dynamic counterpart of ssvc-lint's hotpath rule. A
// warm cycle loop must not allocate, because a leaked or unpooled struct
// per cycle, or per packet, is what silently turns the simulator's hot
// loops back into garbage-collector work.
package heaptest

import (
	"runtime"
	"testing"

	"swizzleqos/internal/noc"
)

// Cycles is both how long a cycle loop is warmed before it is measured
// (long enough for packet pools and free lists to come within a few
// dozen packets of their high-water marks in every guarded
// configuration) and how long the measurement runs.
const Cycles = 20000

// Zero fails t unless run(Cycles) stays under one malloc per hundred
// cycles. Whole mallocs per cycle (the allocs/op column of `go test
// -bench -benchtime=20000x`, which is total/Cycles) would let a leak per
// delivered packet through, since the idle configurations deliver a
// packet every six to ten cycles; what is left of pool growth after the
// warm-up is 63 mallocs in the worst configuration and under ten in the
// rest. The count is a runtime.MemStats delta over one run of the loop,
// not testing.AllocsPerRun, which first runs the loop once more as a
// warm-up of its own: the configurations arrive warm already, and that
// second run would double the cost of every case.
func Zero(t *testing.T, run func(cycles int)) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(Cycles)
	runtime.ReadMemStats(&after)
	if mallocs := noc.SatSub(after.Mallocs, before.Mallocs); mallocs*100 >= Cycles {
		t.Errorf("%d mallocs in %d steady-state cycles, want under one per hundred cycles", mallocs, Cycles)
	}
}
