// Command ssvc-bench regenerates every table and figure of the paper's
// evaluation section (§4) plus the repository's ablations, printing each
// as a fixed-width table.
//
// Usage:
//
//	ssvc-bench [-exp all|fig4a|fig4b|fig5|adherence|table1|table2|area|energy|lanes|glbursts|glbound|chaining|fixedpriority|static|sigbits|gsf|decoupling|convergence|scale64|pvc|compose|motivation|idleskip|ctlplane|faults]
//	           [-quick] [-csv] [-cycles N] [-warmup N] [-seed N] [-workers N]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// -exp takes names in any order and prints their tables in the order
// above; an unknown name is an error.
//
// At most -workers sweep points (default: GOMAXPROCS) run at once in the
// whole process, not in each table: the selected experiments share one
// processor budget (runner.Budget) at the rank of their position, so a
// processor one table cannot use simulates the next table's sweep
// points, while the tables still print in order, each as soon as it and
// everything before it is done. Each sweep point runs its engine's
// cycles on one goroutine. The tables are byte-identical at any worker
// count. -cpuprofile and -memprofile write pprof profiles of the whole
// run for `go tool pprof`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"swizzleqos/internal/experiments"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/stats"
)

// options abbreviates the suite table below.
type options = experiments.Options

// experiment is one entry of the suite. run renders it: tables through
// show, the lines under a table to w.
type experiment struct {
	name string
	run  func(o options, w io.Writer, show func(*stats.Table))
}

// suite is every experiment, in the order the tables print.
var suite = []experiment{
	{"fig4a", table(func(o options) *stats.Table { return experiments.Fig4(false, o).Table() })},
	{"fig4b", table(func(o options) *stats.Table { return experiments.Fig4(true, o).Table() })},
	{"fig5", func(o options, w io.Writer, show func(*stats.Table)) {
		res := experiments.Fig5(o)
		show(res.Table())
		for _, p := range experiments.Fig5Policies {
			fmt.Fprintf(w, "  %-18s latency spread (max/min) = %.2f, 1%%-allocation latency = %.1f\n",
				p, res.LatencySpread(p), res.LowAllocationLatency(p))
		}
		fmt.Fprintln(w)
	}},
	{"adherence", func(o options, w io.Writer, show func(*stats.Table)) {
		res := experiments.RateAdherence(20, o)
		show(res.Table())
		fmt.Fprintf(w, "  worst accepted/reserved across %d combos: %.3f (failures below 98%%: %d)\n\n",
			len(res.Combos), res.WorstRatio, res.Failures)
	}},
	{"table1", table(func(options) *stats.Table { return experiments.Table1() })},
	{"table2", table(func(options) *stats.Table { return experiments.Table2() })},
	{"area", table(func(options) *stats.Table { return experiments.AreaTable() })},
	{"energy", table(func(options) *stats.Table { return experiments.EnergyTable() })},
	{"lanes", table(func(options) *stats.Table { return experiments.LanesTable() })},
	{"glbursts", func(o options, w io.Writer, show func(*stats.Table)) {
		res := experiments.GLBursts(o)
		show(res.Table())
		fmt.Fprintf(w, "  all burst budgets hold: %v\n\n", res.AllHold())
	}},
	{"glbound", func(o options, w io.Writer, show func(*stats.Table)) {
		res := experiments.GLBound(o)
		show(res.Table())
		fmt.Fprintf(w, "  bound holds in all scenarios: %v (tightness %.2f)\n\n", res.AllHold(), res.Tightness())
	}},
	{"chaining", table(func(o options) *stats.Table { return experiments.ChainingTable(experiments.AblationChaining(o)) })},
	{"fixedpriority", table(func(o options) *stats.Table {
		return experiments.FixedPriorityTable(experiments.AblationFixedPriority(o))
	})},
	{"static", table(func(o options) *stats.Table { return experiments.StaticTable(experiments.AblationStaticSchedulers(o)) })},
	{"sigbits", table(func(o options) *stats.Table { return experiments.SigBitsTable(experiments.AblationSigBits(o)) })},
	{"gsf", table(func(o options) *stats.Table { return experiments.GSFTable(experiments.AblationGSF(o)) })},
	{"decoupling", table(func(o options) *stats.Table { return experiments.DecouplingTable(experiments.AblationDecoupling(o)) })},
	{"convergence", table(func(o options) *stats.Table { return experiments.ConvergenceTable(experiments.Convergence(o)) })},
	{"scale64", table(func(o options) *stats.Table { return experiments.Scale64(o).Table() })},
	{"pvc", table(func(o options) *stats.Table { return experiments.PVCTable(experiments.AblationPVC(o)) })},
	{"compose", table(func(o options) *stats.Table { return experiments.ComposeTable(experiments.ComposeQoS(o)) })},
	{"motivation", table(func(o options) *stats.Table { return experiments.MotivationTable(experiments.Motivation(o)) })},
	{"idleskip", table(func(o options) *stats.Table { return experiments.IdleSkipTable(experiments.IdleSkip(o)) })},
	{"ctlplane", table(func(o options) *stats.Table { return experiments.CtlPlaneTable(experiments.CtlPlane(o)) })},
	{"faults", func(o options, w io.Writer, show func(*stats.Table)) {
		show(experiments.FaultsTable(experiments.Faults(o)))
		sf, su, fa, se := experiments.FaultSchedule(o)
		fmt.Fprintf(w, "  schedule: output 0 stalled [%d,%d), input 1 fail-stops at cycle %d, settle window ends at %d\n\n",
			sf, su, fa, se)
	}},
}

// table is the run of an experiment that prints one table and nothing
// under it.
func table(t func(o options) *stats.Table) func(options, io.Writer, func(*stats.Table)) {
	return func(o options, _ io.Writer, show func(*stats.Table)) { show(t(o)) }
}

// expNames is what -exp accepts, in usage order.
func expNames() string {
	names := []string{"all"}
	for _, e := range suite {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain is the testable entry point.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ssvc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiments to run, comma separated: "+expNames())
		quick  = fs.Bool("quick", false, "use short runs (lower accuracy)")
		asCSV  = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		cycles = fs.Uint64("cycles", 0, "override measurement cycles")
		warmup = fs.Uint64("warmup", 0, "override warmup cycles")
		seed   = fs.Uint64("seed", 1, "workload RNG seed")

		workers    = fs.Int("workers", 0, "sweep points running at once, over all tables (0 = GOMAXPROCS, 1 = serial)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	want := make([]bool, len(suite))
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(suite, func(e experiment) bool { return e.name == name })
		switch {
		case name == "all":
			for i := range want {
				want[i] = true
			}
		case i < 0:
			fmt.Fprintf(stderr, "ssvc-bench: unknown experiment %q; -exp takes %s\n", name, expNames())
			return 2
		default:
			want[i] = true
		}
	}
	var chosen []experiment // in suite order
	for i, e := range suite {
		if want[i] {
			chosen = append(chosen, e)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ssvc-bench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "ssvc-bench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Open up front so a bad path fails before hours of simulation.
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, "ssvc-bench:", err)
			return 1
		}
		defer func() {
			defer f.Close()
			runtime.GC() // flush final allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "ssvc-bench:", err)
			}
		}()
	}

	o := experiments.Full()
	if *quick {
		o = experiments.Quick()
	}
	if *cycles != 0 {
		o.Cycles = noc.CycleOf(*cycles)
	}
	if *warmup != 0 {
		o.Warmup = noc.CycleOf(*warmup)
	}
	o.Seed = *seed
	o.Workers = *workers

	// Every chosen experiment runs at once on one budget of -workers
	// processors, at the rank of its position, into a buffer of its own;
	// the buffers reach stdout in table order, each as soon as it and
	// all before it are complete. The requests are queued in that order
	// too, so with one processor this is the serial run.
	budget := o.Budget()
	outputs := make([]bytes.Buffer, len(chosen))
	done := make([]chan struct{}, len(chosen))
	for k, e := range chosen {
		o, buf := o, &outputs[k]
		o.Pool = budget.Pool(k)
		done[k] = make(chan struct{})
		o.Pool.Go(func() {
			defer close(done[k])
			e.run(o, buf, func(t *stats.Table) {
				if *asCSV {
					t.RenderCSV(buf)
				} else {
					t.Render(buf)
				}
				fmt.Fprintln(buf)
			})
		})
	}
	var writeErr error
	for k := range chosen {
		<-done[k]
		if writeErr == nil {
			_, writeErr = stdout.Write(outputs[k].Bytes())
		}
	}
	if writeErr != nil {
		fmt.Fprintln(stderr, "ssvc-bench:", writeErr)
		return 1
	}
	return 0
}
