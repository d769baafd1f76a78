// Command cpupairs compares two checkouts of the module by the CPU time
// of fixed-work benchmark kernels, run in pairs that share one vCPU:
//
//	go run ./scripts/cpupairs BASE HEAD
//
// It builds the `go test -c` binaries of the kernels' packages in both
// checkouts and runs each kernel at a fixed -test.benchtime=Nx, so both
// sides do the same work. A pair starts both sides at once, each under
// `taskset -c k` on the same vCPU k, and rates each by its child's user
// plus system CPU time: the kernel time-shares the one vCPU between
// them, so a slow spell of that vCPU slows both alike. Consecutive pairs
// alternate which side starts first, and each two pairs move on to the
// next vCPU this process may run on (its affinity list from taskset).
//
// For every kernel it prints two rows: A/A, BASE against itself, and
// B/A, HEAD against BASE. Each gives the median of the pairs' CPU-time
// ratios (second side over first; below 1 means HEAD used less CPU),
// their [min, max], and BASE's median CPU seconds. The A/A row is the
// noise a B/A row must clear: a difference resolves when every B/A
// ratio lies outside the A/A range.
//
// Every pair also writes one line to stderr: the kernel, the row, the
// pair's index, its vCPU, which side started first, each side's CPU
// seconds and their ratio, so an outlier can be traced to a vCPU or to a
// launch order.
//
// A side whose output holds no result line of the kernel fails the run:
// a -test.bench pattern that matches nothing (a renamed kernel, or one a
// checkout lacks) still prints PASS and exits 0.
//
// Without taskset it exits 2: unpinned pairs would spread over both
// vCPUs, whose speeds drift apart, and the ratios would measure that.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// pairs is the number of pairs behind each row.
const pairs = 10

// kernel is one benchmark at a fixed iteration count: at least 1.5 s of
// CPU on a 2 vCPU host, as a side of a pair reads it. RoutedSaturated and
// CtlPlaneIdle run about 3 s each: at 1.5 s and 0.7 s their A/A rows
// spread past ±2 %. SwitchCycleRecycled is the permutation (one
// requester per arbitration), SwitchCycleSat the xbar64_sat shape.
type kernel struct {
	name, pkg, bench string
	n                int
}

var kernels = []kernel{
	{"SwitchCycleRecycled/radix64/SSVC", "switchsim", "^BenchmarkSwitchCycleRecycled$/^radix64$/^SSVC$", 1_000_000},
	{"SwitchCycleSat/radix64", "switchsim", "^BenchmarkSwitchCycleSat$/^radix64$", 1_600_000},
	{"SwitchCycleIdle/radix64", "switchsim", "^BenchmarkSwitchCycleIdle$/^radix64$", 15_000_000},
	{"RoutedSaturated", "compose", "^BenchmarkRoutedSaturated$", 200_000},
	{"CtlPlaneIdle", "ctlplane", "^BenchmarkCtlPlaneIdle$", 25_000_000},
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: cpupairs BASE HEAD")
		os.Exit(2)
	}
	if _, err := exec.LookPath("taskset"); err != nil {
		fmt.Fprintln(os.Stderr, "cpupairs: taskset not found; pairs must share one vCPU, so none is run")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "cpupairs:", err)
		os.Exit(1)
	}
}

func run(base, head string) error {
	cpus, err := allowedCPUs()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "cpupairs")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// Side 0 is BASE and side 1 HEAD; each builds every kernel's package.
	dirs := [2]string{base, head}
	for side, dir := range dirs {
		for _, k := range kernels {
			out := testBinary(tmp, side, k)
			if _, err := os.Stat(out); err == nil {
				continue
			}
			build := exec.Command("go", "test", "-c", "-o", out, "./internal/"+k.pkg)
			build.Dir, build.Stdout, build.Stderr = dir, os.Stderr, os.Stderr
			if err := build.Run(); err != nil {
				return fmt.Errorf("building %s in %s: %w", k.pkg, dir, err)
			}
		}
	}
	fmt.Printf("%-34s %-4s %7s  %-17s %s\n", "kernel", "rows", "median", "[min, max]", "base_cpu_s")
	for _, k := range kernels {
		for _, row := range []struct {
			name   string
			side   int
			labels [2]string // the first and second side, as the stderr lines name them
		}{{"A/A", 0, [2]string{"A", "A'"}}, {"B/A", 1, [2]string{"A", "B"}}} {
			ratios, cpu := make([]float64, pairs), make([]float64, pairs)
			for i := range pairs {
				vcpu, swap := cpus[i/2%len(cpus)], i%2 == 1
				t, err := pair(k, tmp, dirs, [2]int{0, row.side}, vcpu, swap)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", k.name, row.name, i, err)
				}
				ratios[i], cpu[i] = t[1]/t[0], t[0]
				first := row.labels[0]
				if swap {
					first = row.labels[1]
				}
				fmt.Fprintf(os.Stderr, "pair %s %s %d cpu=%d first=%s %s=%.3fs %s=%.3fs ratio=%.3f\n",
					k.name, row.name, i, vcpu, first, row.labels[0], t[0], row.labels[1], t[1], ratios[i])
			}
			slices.Sort(ratios)
			slices.Sort(cpu)
			fmt.Printf("%-34s %-4s %7.3f  [%.3f, %.3f]    %.2f\n", k.name, row.name,
				median(ratios), ratios[0], ratios[pairs-1], median(cpu))
		}
	}
	return nil
}

// allowedCPUs returns the ids of the CPUs this process may run on, read
// from `taskset -cp`: taskset -c takes absolute ids, which under a
// restricted cpuset need not start at 0.
func allowedCPUs() ([]int, error) {
	out, err := exec.Command("taskset", "-cp", strconv.Itoa(os.Getpid())).Output()
	if err != nil {
		return nil, fmt.Errorf("reading the affinity list: %w", err)
	}
	return parseCPUList(string(out))
}

// parseCPUList reads the list after the last colon of taskset's
// "pid N's current affinity list: 0,2-3".
func parseCPUList(out string) ([]int, error) {
	list := strings.TrimSpace(out[strings.LastIndex(out, ":")+1:])
	var cpus []int
	for _, f := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(f, "-")
		a, err := strconv.Atoi(lo)
		b := a
		if err == nil && isRange {
			b, err = strconv.Atoi(hi)
		}
		if err != nil || b < a {
			return nil, fmt.Errorf("affinity list %q: bad entry %q", list, f)
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

func testBinary(tmp string, side int, k kernel) string {
	return filepath.Join(tmp, fmt.Sprintf("%s.%d.test", k.pkg, side))
}

// pair runs kernel k once from each of two sides at the same time, each
// from its package directory and both pinned to vCPU cpu, the second
// started first when swap, and returns each child's CPU seconds. It
// fails unless both children ran the kernel (ranKernel).
func pair(k kernel, tmp string, dirs [2]string, sides [2]int, cpu int, swap bool) (t [2]float64, err error) {
	var cmds [2]*exec.Cmd
	var outs [2]bytes.Buffer
	for i, side := range sides {
		cmds[i] = exec.Command("taskset", "-c", strconv.Itoa(cpu), testBinary(tmp, side, k),
			"-test.run=^$", "-test.bench="+k.bench, fmt.Sprintf("-test.benchtime=%dx", k.n), "-test.timeout=10m")
		cmds[i].Dir, cmds[i].Stdout, cmds[i].Stderr = filepath.Join(dirs[side], "internal", k.pkg), &outs[i], os.Stderr
	}
	order := []int{0, 1}
	if swap {
		order = []int{1, 0}
	}
	for n, i := range order {
		if err := cmds[i].Start(); err != nil {
			if n == 1 {
				cmds[order[0]].Wait()
			}
			return t, err
		}
	}
	for i, c := range cmds {
		if werr := c.Wait(); werr != nil && err == nil {
			err = werr
		} else if err == nil && !ranKernel(k, outs[i].String()) {
			err = fmt.Errorf("%s ran no %s at %dx; its output: %q", dirs[sides[i]], k.name, k.n, outs[i].String())
		}
		t[i] = (c.ProcessState.UserTime() + c.ProcessState.SystemTime()).Seconds()
	}
	return t, err
}

// ranKernel reports whether a test binary's output holds a result line of
// kernel k: its name (then a sub-benchmark's or the -GOMAXPROCS suffix),
// then k.n iterations.
func ranKernel(k kernel, out string) bool {
	line := `(?m)^Benchmark` + regexp.QuoteMeta(k.name) + `([/-]\S*)?\s+` + strconv.Itoa(k.n) + `\s`
	return regexp.MustCompile(line).MatchString(out)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	return (sorted[(n-1)/2] + sorted[n/2]) / 2
}
