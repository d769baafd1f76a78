// Command ssvc-benchguard reruns the steady-state engine benchmarks and
// fails when their allocation counts regress past the values recorded in
// the baseline files. -baseline takes a comma-separated list; later files
// override earlier ones per benchmark, so BENCH_bitplane.json supersedes
// BENCH_baseline.json where both record the same benchmark and
// contributes the idle-regime and arbitrate-kernel benchmarks the older
// file predates, BENCH_shard.json adds the sharded cycle-loop
// benchmarks, and BENCH_ctlplane.json adds the control-plane-attached
// idle benchmark on top.
//
// Only B/op and allocs/op are guarded: they are deterministic at a
// fixed -benchtime, so the gate cannot flake the way an ns/op bound
// would on shared CI hardware. The point is to catch a change that
// quietly reintroduces per-cycle heap traffic into the engines' hot
// loops — the same invariant ssvc-lint's hotpath analyzer checks
// statically, verified here dynamically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// guarded maps each benchmark to the package that defines it.
var guarded = map[string]string{
	"BenchmarkSwitchCycleRecycled":  "./internal/switchsim/",
	"BenchmarkSwitchCycleIdle":      "./internal/switchsim/",
	"BenchmarkSwitchCycleSharded":   "./internal/switchsim/",
	"BenchmarkMeshCycleRecycled":    "./internal/mesh/",
	"BenchmarkMeshCycleSharded":     "./internal/mesh/",
	"BenchmarkComposeCycleRecycled": "./internal/compose/",
	"BenchmarkRoutedSaturated":      "./internal/compose/",
	"BenchmarkBitplaneArbitrate":    "./internal/core/",
	"BenchmarkCtlPlaneIdle":         "./internal/ctlplane/",
}

// metric is one benchmark result (or baseline entry). Only the
// allocation columns participate in the comparison.
type metric struct {
	BOp      float64 `json:"B_op"`
	AllocsOp float64 `json:"allocs_op"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json,BENCH_bitplane.json,BENCH_shard.json,BENCH_ctlplane.json", "comma-separated baseline files; later files override earlier entries")
	benchtime := flag.String("benchtime", "20000x", "go test -benchtime value (iteration counts keep allocs/op deterministic; long enough to amortise residual pool warm-up below 0.5 B/op)")
	flag.Parse()

	base := map[string]metric{}
	for _, path := range strings.Split(*baselinePath, ",") {
		layer, err := loadBaseline(strings.TrimSpace(path))
		if err != nil {
			fatal(err)
		}
		for name, m := range layer {
			base[name] = m
		}
	}
	got, err := runBenchmarks(*benchtime)
	if err != nil {
		fatal(err)
	}

	failed := 0
	checked := 0
	for name, m := range got {
		want, ok := base[name]
		if !ok {
			fmt.Printf("  %-45s B/op=%-6.0f allocs/op=%-4.0f (no baseline; informational)\n", name, m.BOp, m.AllocsOp)
			continue
		}
		checked++
		status := "ok"
		if m.AllocsOp > want.AllocsOp || m.BOp > want.BOp {
			status = fmt.Sprintf("REGRESSION (baseline B/op=%.0f allocs/op=%.0f)", want.BOp, want.AllocsOp)
			failed++
		}
		fmt.Printf("  %-45s B/op=%-6.0f allocs/op=%-4.0f %s\n", name, m.BOp, m.AllocsOp, status)
	}
	for name := range base {
		if _, ok := got[name]; !ok {
			fmt.Printf("  %-45s MISSING: baseline entry but benchmark did not run\n", name)
			failed++
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d allocation regression(s) against %s", failed, *baselinePath))
	}
	fmt.Printf("benchguard: %d benchmark(s) at or below baseline allocations\n", checked)
}

// loadBaseline flattens the "after" blocks of BENCH_baseline.json into
// full benchmark names. An "after" block is either a single metric
// (mesh, compose) or a map of sub-benchmark name to metric (switch).
func loadBaseline(path string) (map[string]metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks map[string]struct {
			After json.RawMessage `json:"after"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metric{}
	for name, b := range doc.Benchmarks {
		if _, ok := guarded[name]; !ok || len(b.After) == 0 {
			continue
		}
		// Probe the map shape first: a single metric object would also
		// "succeed" as a struct with every sub-field missing.
		var subs map[string]metric
		if err := json.Unmarshal(b.After, &subs); err == nil {
			for sub, m := range subs {
				out[name+"/"+sub] = m
			}
			continue
		}
		var single metric
		if err := json.Unmarshal(b.After, &single); err != nil {
			return nil, fmt.Errorf("%s: benchmark %s has unrecognised 'after' shape: %w", path, name, err)
		}
		out[name] = single
	}
	return out, nil
}

// runBenchmarks executes the guarded benchmarks once and parses the
// standard `-benchmem` output columns.
func runBenchmarks(benchtime string) (map[string]metric, error) {
	names := make([]string, 0, len(guarded))
	pkgs := make([]string, 0, len(guarded))
	seen := map[string]bool{}
	for name, pkg := range guarded {
		names = append(names, name)
		if !seen[pkg] {
			seen[pkg] = true
			pkgs = append(pkgs, pkg)
		}
	}
	pattern := "^(" + strings.Join(names, "|") + ")$"
	args := append([]string{"test", "-run", "^$", "-bench", pattern, "-benchmem", "-benchtime", benchtime}, pkgs...)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -bench failed: %v\n%s", err, out)
	}
	results := map[string]metric{}
	for _, line := range strings.Split(string(out), "\n") {
		name, m, ok := parseBenchLine(line)
		if ok {
			results[name] = m
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in go test output:\n%s", out)
	}
	return results, nil
}

// parseBenchLine reads one `BenchmarkX/sub-N  iters  ns/op  B/op
// allocs/op  [extra metrics]` line, stripping the -GOMAXPROCS suffix.
func parseBenchLine(line string) (string, metric, bool) {
	fields := strings.Fields(line)
	if len(fields) < 7 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metric{}, false
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var m metric
	found := 0
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			m.BOp = v
			found++
		case "allocs/op":
			m.AllocsOp = v
			found++
		}
	}
	if found != 2 {
		return "", metric{}, false
	}
	return name, m, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssvc-benchguard:", err)
	os.Exit(1)
}
