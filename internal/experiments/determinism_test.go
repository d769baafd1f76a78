package experiments

import (
	"sync"
	"testing"
)

// small returns fast-running options for determinism checks; accuracy is
// irrelevant, only bit-for-bit reproducibility matters.
func small(workers int) Options {
	return Options{Cycles: 4000, Warmup: 400, Seed: 7, Workers: workers}
}

// TestWorkersByteIdenticalTables is the parallel engine's contract: the
// rendered table for every fanned-out experiment must be byte-identical
// at any worker count, because results are written by sweep index and
// every per-point seed is derived, never drawn from a shared stream.
func TestWorkersByteIdenticalTables(t *testing.T) {
	cases := []renderCase{
		{"fig4", func(o Options) string { return Fig4(true, o).Table().String() }},
		{"fig5", func(o Options) string { return Fig5(o).Table().String() }},
		{"adherence", func(o Options) string { return RateAdherence(6, o).Table().String() }},
		{"glbound", func(o Options) string { return GLBound(o).Table().String() }},
		{"motivation", func(o Options) string { return MotivationTable(Motivation(o)).String() }},
		{"static", func(o Options) string { return StaticTable(AblationStaticSchedulers(o)).String() }},
		{"faults", func(o Options) string { return FaultsTable(Faults(o)).String() }},
	}
	serial := make([]string, len(cases))
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.render(small(1))
			if want == "" {
				t.Fatal("serial render is empty")
			}
			serial[i] = want
			for _, workers := range []int{2, 8} {
				if got := tc.render(small(workers)); got != want {
					t.Errorf("workers=%d output differs from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
						workers, want, workers, got)
				}
			}
		})
	}
	// The same holds when the experiments run at once and share their
	// workers, as under ssvc-bench.
	for _, workers := range []int{1, 2, 8} {
		for i, got := range renderShared(small(workers), cases) {
			if serial[i] != "" && got != serial[i] { // "": its subtest was filtered out by -run
				t.Errorf("%s on a shared budget of %d differs from serial:\n--- serial ---\n%s--- shared ---\n%s",
					cases[i].name, workers, serial[i], got)
			}
		}
	}
}

// renderCase is one experiment rendered to a string.
type renderCase struct {
	name   string
	render func(o Options) string
}

// renderShared renders every case at once on one budget of the options'
// sweep-worker count, case i from a pool of rank i.
func renderShared(o Options, cases []renderCase) []string {
	budget := o.Budget()
	out := make([]string, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		o := o
		o.Pool = budget.Pool(i)
		wg.Add(1)
		o.Pool.Go(func() {
			defer wg.Done()
			out[i] = tc.render(o)
		})
	}
	wg.Wait()
	return out
}

// TestWorkersConcurrentExperiments drives several parallel experiments at
// once — the -race smoke test for the experiments layer on top of the
// runner's own stress test.
func TestWorkersConcurrentExperiments(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := small(4)
			Fig4(false, o)
			AblationChaining(o)
		}()
	}
	wg.Wait()
}
