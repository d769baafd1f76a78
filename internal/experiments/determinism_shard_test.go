package experiments

import (
	"runtime"
	"testing"

	"swizzleqos/internal/runner"
)

// sharded returns fast-running options at a given shard count with the
// per-engine worker count forced to match, so even on a small host the
// -race run drives real shard goroutines through the barrier path.
func sharded(shards int) Options {
	return Options{Cycles: 4000, Warmup: 400, Seed: 7, Workers: 1,
		Shards: shards, ShardWorkers: shards}
}

// TestShardsByteIdenticalTables is the tentpole contract at the
// experiments layer: every rendered table must be byte-identical at any
// shard count, across all three engines (fig4/scale64 drive the
// crossbar, motivation and idleskip drive the mesh, compose and
// idleskip drive the composed network) and including the
// fault-injection experiment, whose runs fall back to the serial walk
// over sharded state.
func TestShardsByteIdenticalTables(t *testing.T) {
	cases := []renderCase{
		{"fig4", func(o Options) string { return Fig4(true, o).Table().String() }},
		{"scale64", func(o Options) string { return Scale64(o).Table().String() }},
		{"motivation", func(o Options) string { return MotivationTable(Motivation(o)).String() }},
		{"compose", func(o Options) string { return ComposeTable(ComposeQoS(o)).String() }},
		{"idleskip", func(o Options) string { return IdleSkipTable(IdleSkip(o)).String() }},
		{"faults", func(o Options) string { return FaultsTable(Faults(o)).String() }},
		{"ctlplane", func(o Options) string { return CtlPlaneTable(CtlPlane(o)).String() }},
	}
	serial := make([]string, len(cases))
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.render(sharded(1))
			if want == "" {
				t.Fatal("serial render is empty")
			}
			serial[i] = want
			for _, shards := range []int{2, 4, 8} {
				if got := tc.render(sharded(shards)); got != want {
					t.Errorf("shards=%d output differs from serial:\n--- serial ---\n%s--- shards=%d ---\n%s",
						shards, want, shards, got)
				}
			}
		})
	}
	// Sharded engines of different experiments side by side on one
	// shared budget of two sweep workers, as under ssvc-bench -shards.
	o := sharded(4)
	o.Workers = 2
	for i, got := range renderShared(o, cases) {
		if serial[i] != "" && got != serial[i] { // "": its subtest was filtered out by -run
			t.Errorf("%s at shards=4 on a shared budget differs from serial:\n--- serial ---\n%s--- shared ---\n%s",
				cases[i].name, serial[i], got)
		}
	}
}

// TestShardSplitNeverOversubscribes pins the composition rule the
// options layer delegates to runner.Compose: whenever the sweep-worker
// count is derived (Workers == 0) and no explicit shard-worker override
// is given, the product of sweep lanes and per-engine shard workers
// stays within GOMAXPROCS.
func TestShardSplitNeverOversubscribes(t *testing.T) {
	budget := runtime.GOMAXPROCS(0)
	for _, shards := range []int{0, 1, 2, 4, 8, 64} {
		o := Options{Shards: shards}
		sweep, shardW := o.split()
		if sweep < 1 || shardW < 1 {
			t.Fatalf("shards=%d: split() = (%d, %d), both must be at least 1", shards, sweep, shardW)
		}
		if sweep*shardW > budget {
			t.Errorf("shards=%d: split() = (%d, %d) oversubscribes GOMAXPROCS=%d",
				shards, sweep, shardW, budget)
		}
		wantSweep, wantShard := runner.Compose(0, 0, shards)
		if sweep != wantSweep || shardW != wantShard {
			t.Errorf("shards=%d: split() = (%d, %d), want runner.Compose's (%d, %d)",
				shards, sweep, shardW, wantSweep, wantShard)
		}
	}
	// An explicit override wins over the composed value.
	o := Options{Shards: 4, ShardWorkers: 3}
	if _, shardW := o.split(); shardW != 3 {
		t.Fatalf("explicit ShardWorkers not honoured: got %d, want 3", shardW)
	}
}
