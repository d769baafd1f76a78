package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden table files")

// goldenOptions pins the simulation-backed goldens' run length and seed.
// The workloads behind them are fully deterministic (backlogged sources,
// no RNG), and the runner guarantees byte-identical tables at any worker
// count, so these tables are a strict regression oracle for the engines.
func goldenOptions() Options {
	return Options{Cycles: 20000, Warmup: 2000, Seed: 1, Workers: 2}
}

// TestGoldenTables pins the exact rendering of the deterministic tables:
// the simulation-free hardware models, the mesh motivation and Clos
// composition experiments (which exercise all three cycle-accurate
// engines), the crossbar comparisons of Figures 4 and 5 and the
// ablations, and the guarantee tables, each with the summary lines
// ssvc-bench prints under it. Run with -update-golden after an
// intentional change to the hardware models, the engines, or the table
// renderer.
func TestGoldenTables(t *testing.T) {
	o := goldenOptions()
	adh := RateAdherence(20, o)
	glb := GLBound(o)
	bursts := GLBursts(o)
	fig5 := Fig5(o)
	fig5Text := fig5.Table().String()
	for _, p := range Fig5Policies {
		fig5Text += fmt.Sprintf("  %-18s latency spread (max/min) = %.2f, 1%%-allocation latency = %.1f\n",
			p, fig5.LatencySpread(p), fig5.LowAllocationLatency(p))
	}
	cases := []struct {
		name string
		got  string
	}{
		{"table1.txt", Table1().String()},
		{"table2.txt", Table2().String()},
		{"area.txt", AreaTable().String()},
		{"lanes.txt", LanesTable().String()},
		{"motivation.txt", MotivationTable(Motivation(o)).String()},
		{"compose.txt", ComposeTable(ComposeQoS(o)).String()},
		{"faults.txt", FaultsTable(Faults(o)).String()},
		{"idleskip.txt", IdleSkipTable(IdleSkip(o)).String()},
		{"ctlplane.txt", CtlPlaneTable(CtlPlane(o)).String()},
		{"adherence.txt", adh.Table().String() + fmt.Sprintf("worst %.3f failures %d\n", adh.WorstRatio, adh.Failures)},
		{"glbound.txt", glb.Table().String() + fmt.Sprintf("all hold %v tightness %.2f\n", glb.AllHold(), glb.Tightness())},
		{"glbursts.txt", bursts.Table().String() + fmt.Sprintf("all hold %v\n", bursts.AllHold())},
		{"scale64.txt", Scale64(o).Table().String()},
		{"sigbits.txt", SigBitsTable(AblationSigBits(o)).String()},
		{"gsf.txt", GSFTable(AblationGSF(o)).String()},
		{"convergence.txt", ConvergenceTable(Convergence(o)).String()},
		{"fig4a.txt", Fig4(false, o).Table().String()},
		{"fig4b.txt", Fig4(true, o).Table().String()},
		{"fig5.txt", fig5Text},
		{"chaining.txt", ChainingTable(AblationChaining(o)).String()},
		{"fixedpriority.txt", FixedPriorityTable(AblationFixedPriority(o)).String()},
		{"static.txt", StaticTable(AblationStaticSchedulers(o)).String()},
		{"decoupling.txt", DecouplingTable(AblationDecoupling(o)).String()},
		{"pvc.txt", PVCTable(AblationPVC(o)).String()},
		{"energy.txt", EnergyTable().String()},
	}
	for _, tc := range cases {
		path := filepath.Join("testdata", tc.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(tc.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update-golden to create)", tc.name, err)
		}
		if string(want) != tc.got {
			t.Errorf("%s drifted from golden output.\n--- golden ---\n%s\n--- got ---\n%s",
				tc.name, want, tc.got)
		}
	}
}
