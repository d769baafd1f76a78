package main

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestBenchMainTable1(t *testing.T) {
	var out, errOut strings.Builder
	if code := benchMain([]string{"-exp", "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1101 K") {
		t.Fatalf("missing Table 1 total:\n%s", out.String())
	}
}

func TestBenchMainCSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := benchMain([]string{"-exp", "lanes,area", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, header := range []string{"radix,channel(bits),lanes", "channel(bits),overhead(%)"} {
		if !strings.Contains(out.String(), header) {
			t.Fatalf("CSV header %q missing:\n%s", header, out.String())
		}
	}
}

func TestBenchMainQuickSimulation(t *testing.T) {
	var out, errOut strings.Builder
	if code := benchMain([]string{"-exp", "chaining", "-cycles", "5000", "-warmup", "500"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "chaining") {
		t.Fatalf("missing chaining table:\n%s", out.String())
	}
}

func TestBenchMainWorkersIdenticalOutput(t *testing.T) {
	args := []string{"-exp", "chaining", "-cycles", "3000", "-warmup", "300"}
	run := func(workers string) string {
		var out, errOut strings.Builder
		a := append([]string{"-workers", workers}, args...)
		if code := benchMain(a, &out, &errOut); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, errOut.String())
		}
		return out.String()
	}
	serial := run("1")
	if parallel := run("4"); parallel != serial {
		t.Fatalf("output differs between -workers 1 and 4:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

func TestBenchMainProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pb.gz"
	mem := dir + "/mem.pb.gz"
	var out, errOut strings.Builder
	args := []string{"-exp", "table1", "-cpuprofile", cpu, "-memprofile", mem}
	if code := benchMain(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestBenchMainFaultsShorthand(t *testing.T) {
	var out, errOut strings.Builder
	if code := benchMain([]string{"-faults", "-cycles", "5000", "-warmup", "500"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "Fault injection") {
		t.Fatalf("missing faults table:\n%s", got)
	}
	if !strings.Contains(got, "fail-stops at cycle") {
		t.Fatalf("missing schedule line:\n%s", got)
	}
	if strings.Contains(got, "Table 1") {
		t.Fatalf("-faults alone must not run the full suite:\n%s", got)
	}
}

func TestBenchMainFaultsCombinesWithExp(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-faults", "-exp", "table1", "-cycles", "5000", "-warmup", "500"}
	if code := benchMain(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "Fault injection") || !strings.Contains(got, "Table 1") {
		t.Fatalf("-faults -exp table1 must run both:\n%s", got)
	}
}

// TestBenchMainUnknownExperiment: one unknown name refuses the whole
// selection, known names beside it included, and names what -exp takes.
func TestBenchMainUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"nonsense", "table1,nonsense", "table1,"} {
		var out, errOut strings.Builder
		if code := benchMain([]string{"-exp", exp}, &out, &errOut); code != 2 {
			t.Fatalf("-exp %q: exit %d, want 2", exp, code)
		}
		if out.Len() != 0 {
			t.Fatalf("-exp %q printed tables before refusing:\n%s", exp, out.String())
		}
		for _, want := range []string{"unknown experiment", strconv.Quote(exp[strings.LastIndex(exp, ",")+1:]), expNames()} {
			if !strings.Contains(errOut.String(), want) {
				t.Fatalf("-exp %q: diagnostic misses %q: %s", exp, want, errOut.String())
			}
		}
	}
}

// TestBenchMainRemovedShardFlags: the engines run one serial cycle, so
// -shards and -shard-workers are unknown flags and exit 2.
func TestBenchMainRemovedShardFlags(t *testing.T) {
	for _, flag := range []string{"-shards", "-shard-workers"} {
		var out, errOut strings.Builder
		if code := benchMain([]string{"-exp", "table1", flag, "2"}, &out, &errOut); code != 2 {
			t.Fatalf("%s 2: exit %d, want 2", flag, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Fatalf("%s 2: stdout %q, stderr %q", flag, out.String(), errOut.String())
		}
	}
}

// TestBenchMainSelectionOrder: names may come in any order and with
// spaces; the tables print in suite order.
func TestBenchMainSelectionOrder(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-exp", "faults, area,fig4a", "-cycles", "3000", "-warmup", "300"}
	if code := benchMain(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	a, b, c := strings.Index(got, "Figure 4(a)"), strings.Index(got, "channel(bits)"), strings.Index(got, "Fault injection")
	if a < 0 || b < a || c < b {
		t.Fatalf("tables at %d, %d, %d, want fig4a, area, faults in that order:\n%s", a, b, c, got)
	}
}

// TestBenchMainSuiteIdenticalAtAnyBudget runs the whole -quick suite
// on budgets of 1, 2 and 8 processors and on a one-processor host:
// however the tables overlap, standard output is the same bytes.
func TestBenchMainSuiteIdenticalAtAnyBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the -quick suite four times")
	}
	run := func(args ...string) string {
		var out, errOut strings.Builder
		if code := benchMain(append([]string{"-quick"}, args...), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errOut.String())
		}
		return out.String()
	}
	serial := run("-workers", "1")
	if n := strings.Count(serial, "\n\n"); n < len(suite) {
		t.Fatalf("serial suite printed %d blocks, want at least %d", n, len(suite))
	}
	for _, workers := range []string{"2", "8"} {
		if got := run("-workers", workers); got != serial {
			t.Errorf("-workers %s differs from -workers 1", workers)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := run(); got != serial {
		t.Errorf("GOMAXPROCS=1 differs from -workers 1")
	}
}

// failAfter fails every Write after the first n.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n--; w.n < 0 {
		return 0, errors.New("stdout went away")
	}
	return len(p), nil
}

// TestBenchMainWriteError: a standard output that fails at the second
// table gives exit 1 with the error on stderr, after every experiment
// has been waited for.
func TestBenchMainWriteError(t *testing.T) {
	var errOut strings.Builder
	args := []string{"-exp", "table1,table2,chaining", "-cycles", "3000", "-warmup", "300"}
	if code := benchMain(args, &failAfter{n: 1}, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "stdout went away") {
		t.Fatalf("missing diagnostic: %s", errOut.String())
	}
}

// TestExpNamesInDocs: the usage line of the package comment is the
// suite table's, so neither can drift from what -exp accepts.
func TestExpNamesInDocs(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if want := "//\tssvc-bench [-exp " + expNames() + "]\n"; !strings.Contains(string(src), want) {
		t.Fatalf("package comment's usage line is not %q", want)
	}
	var out, errOut strings.Builder
	if code := benchMain([]string{"-h"}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), expNames()) {
		t.Fatalf("-h: exit %d, usage misses the -exp names: %s", code, errOut.String())
	}
}

func TestBenchMainBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := benchMain([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
