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
// rest. The count is a runtime.MemStats delta, not
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 while it measures: a
// sharded engine's worker team spins at its barriers and must be
// measured running as it ships.
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

// raceDetector is set by race.go when the test binary is built with
// -race.
var raceDetector bool

// SkipTeamUnderRace skips a case whose engine runs a shard worker team
// when the race detector is on. The team spins at its barriers; with
// every spin instrumented, and `go test -race ./...` running other
// packages on the same CPUs, Cycles cycles of an 8x8 mesh take minutes.
// A malloc count learns nothing from the race detector, and the teams'
// own race run is `make race-shard`.
func SkipTeamUnderRace(t *testing.T, shards int) {
	if raceDetector && shards > 1 {
		t.Skip("shard worker team under the race detector: measured by plain go test, raced by make race-shard")
	}
}
