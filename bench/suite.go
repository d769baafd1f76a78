package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// suitePasses is how many times one untraced run executes the suite:
	// each experiment is timed at the fastest of its executions.
	suitePasses = 4
	// suiteWarmups is how many warm-up executions, an eighth as long, come
	// before them: the workload's set-up.
	suiteWarmups = 3
	// suiteCycles is ssvc-bench's -cycles for a 10-second run on the
	// reference host; -warmup is a tenth of it.
	suiteCycles = 125000
)

// buildBinary builds one of the module's commands into the work dir.
func buildBinary(e *env, name string) (string, error) {
	out := filepath.Join(e.workdir, name)
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", out, "./cmd/"+name)
	cmd.Dir = e.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, msg)
	}
	return out, nil
}

// peakRSSMB reads a live process's peak resident set (VmHWM) from /proc,
// or 0 where /proc does not have it. rusage's maxrss will not do: a child
// started by vfork inherits the peak of the parent's address space, so a
// small child reports the benchmark's own footprint.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// experimentTitles maps the start of a table title ssvc-bench prints to
// the experiment metric it times; every other table counts as "other".
var experimentTitles = []struct{ prefix, name string }{
	{"Figure 4(a)", "fig4a"},
	{"Figure 4(b)", "fig4b"},
	{"§4.2", "adherence"},
	{"event-driven idle skipping", "idleskip"},
	{"Ablation: arbitration-cycle loss", "chaining"},
	{"§4.4 scale", "scale64"},
	{"Motivation", "motivation"},
	{"§2.2 frame-based", "gsf"},
	{"Fault injection", "faults"},
	{"Control plane", "ctlplane"},
}

func experimentOf(title string) string {
	for _, t := range experimentTitles {
		if strings.HasPrefix(title, t.prefix) {
			return t.name
		}
	}
	return "other"
}

// suiteOut is one finished ssvc-bench process.
type suiteOut struct {
	wall    time.Duration
	hash    string        // of standard output
	cpu     time.Duration // user + system
	packets uint64        // the scale64 table's "packets delivered"
	// One entry per table, in order: the experiment that printed it and how
	// long after the previous table (or the start) its title arrived.
	// Experiments run one after another and print as they finish, so that
	// is the experiment's duration.
	experiments []string
	took        []time.Duration
}

// runSuite runs ssvc-bench and reads its standard output as it arrives.
// With a tracer each experiment becomes a child span of root.
func runSuiteProcess(ctx context.Context, bin string, cycles uint64, workers int, seed uint64, tr *tracer, root int) (*suiteOut, error) {
	cmd := exec.CommandContext(ctx, bin,
		"-workers", strconv.Itoa(workers),
		"-cycles", strconv.FormatUint(cycles, 10),
		"-warmup", strconv.FormatUint(cycles/10, 10),
		"-seed", strconv.FormatUint(seed, 10))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	out := &suiteOut{}
	h := sha256.New()
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	last, prevBlank := start, true
	spanStart := int64(0)
	if tr != nil {
		spanStart = tr.now()
	}
	for sc.Scan() {
		line := sc.Text()
		h.Write(sc.Bytes())
		h.Write([]byte{'\n'})
		if prevBlank && line != "" && !strings.HasPrefix(line, "  ") {
			now := time.Now()
			name := experimentOf(line)
			out.experiments = append(out.experiments, name)
			out.took = append(out.took, now.Sub(last))
			last = now
			if tr != nil {
				end := tr.now()
				tr.interval(root, "experiments."+name, "experiments", spanStart, end, 1)
				spanStart = end
			}
		}
		if rest, ok := strings.CutPrefix(line, "packets delivered"); ok {
			out.packets, _ = strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
		prevBlank = line == ""
	}
	readErr := sc.Err()
	err = cmd.Wait()
	out.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("ssvc-bench: %v: %s", err, stderr.String())
	}
	if readErr != nil {
		return nil, fmt.Errorf("ssvc-bench: read output: %w", readErr)
	}
	out.hash = fmt.Sprintf("%x", h.Sum(nil))
	out.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return out, nil
}

func runSuite(e *env) *workloadResult {
	res := newResult(e)
	workers := runtime.NumCPU()
	cycles := uint64(float64(suiteCycles) * e.scale())
	if cycles < 2000 {
		cycles = 2000
	}
	bin, err := buildBinary(e, "ssvc-bench")
	if err != nil {
		return res.fail(err)
	}
	if e.traced {
		return runSuiteTraced(e, res, bin, cycles/2, workers)
	}

	// Set-up is the warm-up: executions at an eighth of the length, which
	// also serve the check that the tables do not depend on the worker
	// count: at -workers 1 the suite must print what it prints at -workers
	// nproc.
	reduced := cycles / 8
	warm, warmParts, err := suiteExecutions(e, res, bin, e.passes(suiteWarmups), reduced, workers)
	if err != nil {
		return res.fail(err)
	}
	one, err := runSuiteProcess(e.ctx, bin, reduced, 1, e.seed, nil, 0)
	if err != nil {
		return res.fail(err)
	}
	res.op(one.hash == warm.hash, "-workers 1 printed %s, -workers %d printed %s", one.hash, workers, warm.hash)

	alloc0 := totalAlloc()
	out, parts, err := suiteExecutions(e, res, bin, e.passes(suitePasses), cycles, workers)
	if err != nil {
		return res.fail(err)
	}
	alloc1 := totalAlloc()
	key := fmt.Sprintf("seed=%d cycles=%d", e.seed, cycles)
	pins := e.pinned(key, []string{out.hash})
	res.op(pins == nil || pins[0] == out.hash, "stdout hash %s differs from the pinned one (%s)", out.hash, key)
	res.op(out.packets > 0 && len(out.experiments) > len(experimentTitles),
		"suite printed %d tables and %d scale64 packets", len(out.experiments), out.packets)

	wall := sum(fastest(parts))
	res.setSamples("setup_s", sum(fastest(warmParts)), 0, 0, len(warmParts[0]))
	res.setSamples("suite_wall_s", wall, 0, 0, len(parts[0]))
	res.fill(wall, megabytes(alloc0, alloc1))
	res.Counts["stdout_sha256"] = out.hash
	res.Counts["scale64.packets"] = fmt.Sprint(out.packets)
	return res
}

// suiteExecutions runs the suite n times on the same inputs, which must
// print the same every time, and returns the last output and, by
// execution, its parts: the seconds each table took and then what the
// process took to exit after the last. They add up to the process's wall.
func suiteExecutions(e *env, res *workloadResult, bin string, n int, cycles uint64, workers int) (*suiteOut, [][]float64, error) {
	var out *suiteOut
	var parts [][]float64
	for k := 0; k < n; k++ {
		o, err := runSuiteProcess(e.ctx, bin, cycles, workers, e.seed, nil, 0)
		if err != nil {
			return nil, nil, err
		}
		if out != nil {
			res.op(o.hash == out.hash, "execution %d at -cycles %d printed %s, the first %s", k+1, cycles, o.hash, out.hash)
		}
		out = o
		took, rest := []float64(nil), o.wall
		for _, d := range o.took {
			took = append(took, seconds(d))
			rest -= d
		}
		parts = append(parts, append(took, seconds(rest)))
	}
	return out, parts, nil
}

// runSuiteTraced runs the suite twice at half length, the second time
// recording one span per experiment.
func runSuiteTraced(e *env, res *workloadResult, bin string, cycles uint64, workers int) *workloadResult {
	bare, err := runSuiteProcess(e.ctx, bin, cycles, workers, e.seed, nil, 0)
	if err != nil {
		return res.fail(err)
	}
	tr := e.newTracer()
	root := tr.begin(0, e.name, "bench")
	out, err := runSuiteProcess(e.ctx, bin, cycles, workers, e.seed, tr, root)
	tr.finish(root)
	if err != nil {
		return res.fail(err)
	}
	res.op(out.hash == bare.hash, "traced run printed %s, untraced %s", out.hash, bare.hash)
	tr.finishTrace(e, res)

	byExp := map[string]time.Duration{}
	for i, name := range out.experiments {
		byExp[name] += out.took[i]
	}
	for _, t := range experimentTitles {
		_, found := byExp[t.name]
		res.op(found, "no table titled %q in the suite's output", t.prefix)
		res.set("experiments."+t.name+"_s", seconds(byExp[t.name]))
	}
	res.set("experiments.other_s", seconds(byExp["other"]))
	res.set("runner.parallel_efficiency", seconds(out.cpu)/(seconds(out.wall)*float64(workers)))
	res.set("stats.record_ns", recordNS(e.kernelBudget()))
	res.set("trace.overhead_share", seconds(out.wall)/seconds(bare.wall)-1)
	res.Counts["stdout_sha256"] = out.hash
	return res
}
