// Command bench is the repository's one benchmark: six named workloads,
// nine end-to-end metrics from an untraced run, and per-layer metrics from
// a second, traced run of the same inputs. See README.md in this
// directory and BENCHMARK.json at the module root.
//
// Usage, from the module root:
//
//	go run ./bench -list
//	go run ./bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|FILE]
//	               [-runs N] [-out FILE] [-workdir DIR] [-expected FILE]
//	go run ./bench -compare A.json B.json
//	go run ./bench -compare -pairs N [-workload NAME] DIR_A DIR_B
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: every end-to-end metric
// for -trace 0, every per-layer metric otherwise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// env is what a workload run is given.
type env struct {
	ctx      context.Context
	name     string
	seed     uint64
	seconds  float64 // length of the timed window on the reference host
	traced   bool
	spanFile string // write spans here when traced; "" for none
	root     string // module root
	workdir  string
	expected *expectations
	log      io.Writer
}

// metricValue is one reported number. Q1, Q3 and N describe the samples a
// median or percentile was taken from, when there were any.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is one run of one workload.
type workloadResult struct {
	Name      string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Filled names the end-to-end metrics this workload does not define,
	// whose values fill put there.
	Filled []string `json:"filled,omitempty"`
	// Counts are exact simulated counts and digests: identical between two
	// runs of the same seed and -seconds, on any host.
	Counts map[string]string `json:"counts"`
}

// scale sizes the fixed counts: the constants in the workload files are
// for a 10-second window.
func (e *env) scale() float64 { return e.seconds / 10 }

func newResult(e *env) *workloadResult {
	return &workloadResult{Name: e.name, Seed: e.seed, Seconds: e.seconds, Traced: e.traced,
		Metrics: map[string]metricValue{}, Counts: map[string]string{}}
}

// set records a metric by its registered name.
func (r *workloadResult) set(name string, v float64) {
	r.setSamples(name, v, 0, 0, 0)
}

func (r *workloadResult) setSamples(name string, v, q1, q3 float64, n int) {
	def := findMetric(name)
	if def == nil {
		panic("bench: metric " + name + " is not registered in metrics.go")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit, Q1: q1, Q3: q3, N: n}
}

// fill gives every end-to-end metric the workload does not define a value,
// because the driver's result line must carry every name on every workload
// and none may be 0. The value is the one time the workload does report,
// window seconds long: as it is for a time in s, in ms, as windows per
// second for a rate, and for alloc_mb what the benchmark's own process
// allocated meanwhile.
func (r *workloadResult) fill(window, allocMB float64) {
	for _, d := range endToEnd {
		if _, set := r.Metrics[d.Name]; set {
			continue
		}
		switch d.Unit {
		case "s":
			r.set(d.Name, window)
		case "ms":
			r.set(d.Name, window*1e3)
		case "1/s":
			r.set(d.Name, 1/window)
		default:
			r.set(d.Name, allocMB)
		}
		r.Filled = append(r.Filled, d.Name)
	}
}

// op counts one attempted operation and, when it failed, why.
func (r *workloadResult) op(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		if len(r.Failures) < 20 {
			r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// fail records a failure that prevented the workload from running at all.
func (r *workloadResult) fail(err error) *workloadResult {
	r.op(false, "%v", err)
	return r
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// driverLine is the contract's last line of standard output: every metric
// of the run's kind, 0 where a per-layer metric is not measured on this
// workload.
func (r *workloadResult) driverLine() ([]byte, error) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		out.Metrics[d.Name] = mv{m.Value, d.Unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	return json.Marshal(out)
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host hostInfo          `json:"host"`
	Runs []*workloadResult `json:"runs"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload and print the driver's result line (default: all)")
		seed     = fs.Uint64("seed", 1, "drives destination shuffles, reservation mixes and every generator seed")
		secs     = fs.Float64("seconds", 8, "length of the timed window on the reference host; sizes the fixed cycle and command counts")
		trace    = fs.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; FILE: traced, spans written as JSONL")
		runs     = fs.Int("runs", 1, "repeat each selected workload with seeds seed, seed+1, ...")
		out      = fs.String("out", "", "write the full result JSON (host header, every run) to this file")
		workdir  = fs.String("workdir", "", "directory for binaries and journals (default: a fresh directory under .bench_work, removed on exit)")
		expected = fs.String("expected", "", "pinned digests (default: bench/expected.json)")
		repin    = fs.Bool("repin", false, "rewrite the pinned digests of the runs made instead of checking them")
		list     = fs.Bool("list", false, "list workloads and metrics, then exit")
		compare  = fs.Bool("compare", false, "compare two result files, or with -pairs two checkouts")
		pairs    = fs.Int("pairs", 0, "with -compare: build the bench of two checkouts and alternate N paired runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		return compareMain(ctx, root, fs.Args(), *pairs, *workload, *seed, *secs, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if !(*secs > 0) || *runs < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -runs must be positive")
		return 2
	}
	selected := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (see -list)\n", *workload)
			return 2
		}
		selected = []workloadDef{*w}
	}
	if *expected == "" {
		*expected = filepath.Join(root, "bench", "expected.json")
	}
	exp, err := loadExpectations(*expected, *repin)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	dir, cleanup, err := makeWorkdir(root, *workdir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer cleanup()

	file := resultFile{Host: hostFingerprint(root, dir)}
	code := 0
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			e := &env{ctx: ctx, name: w.Name, seed: *seed + uint64(i), seconds: *secs, traced: *trace != "0",
				root: root, workdir: dir, expected: exp, log: stderr}
			if *trace != "0" && *trace != "1" {
				e.spanFile = *trace
			}
			fmt.Fprintf(stderr, "bench: %s seed=%d seconds=%g traced=%v\n", w.Name, e.seed, e.seconds, e.traced)
			res := w.run(e)
			file.Runs = append(file.Runs, res)
			if !res.correct() {
				code = 1
				for _, f := range res.Failures {
					fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", w.Name, f)
				}
			}
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "bench: interrupted")
				return 1
			}
		}
	}
	if *repin {
		if err := exp.save(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write result:", err)
			return 1
		}
	}
	if *workload != "" && *runs == 1 {
		printRun(stderr, file.Runs[0])
		line, err := file.Runs[0].driverLine()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return code
	}
	for _, r := range file.Runs {
		printRun(stdout, r)
	}
	return code
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g traced=%v correct=%v attempted=%d failed=%d\n",
		r.Name, r.Seed, r.Seconds, r.Traced, r.correct(), r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-38s %14.6g %-6s", n, m.Value, m.Unit)
		for _, f := range r.Filled {
			if f == n {
				fmt.Fprint(w, " (filled: not defined on this workload)")
			}
		}
		if m.N > 0 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g n=%d", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, d := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", d.Name, d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (untraced run):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-38s %-6s %-6s [%s] %s\n", d.Name, d.Unit, d.Better, strings.Join(d.On, ","), d.Doc)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-38s %-6s %-6s [%s] %s\n", d.Name, d.Unit, d.Better, strings.Join(d.On, ","), d.Doc)
	}
}

// moduleRoot finds the swizzleqos module above the working directory: the
// benchmark builds cmd/ssvc-bench and cmd/ssvc-serve from it.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module swizzleqos") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no swizzleqos go.mod above the working directory")
		}
		dir = parent
	}
}

// makeWorkdir returns the directory binaries and journals go to. The
// default is fresh, inside the checkout (fsync on /tmp is often not a
// disk), and removed on exit.
func makeWorkdir(root, dir string) (string, func(), error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", nil, err
		}
		abs, err := filepath.Abs(dir)
		return abs, func() {}, err
	}
	base := filepath.Join(root, ".bench_work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	return tmp, func() {
		os.RemoveAll(tmp)
		os.Remove(base) // only succeeds once no other run is using it
	}, nil
}
