package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/noc"
)

// smokeSeconds is a hundredth of the 10-second sizing.
const smokeSeconds = "0.1"

// runBench runs the command in-process and returns its exit code, its
// standard output, and the runs it wrote with -out.
func runBench(t *testing.T, args ...string) (int, string, []*workloadResult) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), append([]string{"-out", out}, args...), &stdout, &stderr)
	var file resultFile
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("result file: %v", err)
		}
	}
	if t.Failed() || testing.Verbose() {
		t.Logf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	return code, stdout.String(), file.Runs
}

// TestRegistryMatchesBenchmarkJSON keeps metrics.go and BENCHMARK.json in
// step: same workloads, same metrics, same units and directions.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, metrics.go %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, metrics.go %q", i, w.Name, workloads[i].Name)
		}
	}
	seen := map[string]bool{}
	for _, set := range []struct {
		json []metric
		defs []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(set.json) != len(set.defs) {
			t.Fatalf("BENCHMARK.json names %d metrics, metrics.go %d", len(set.json), len(set.defs))
		}
		for i, m := range set.json {
			d := set.defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("metric %d: BENCHMARK.json has %+v, metrics.go {%s %s %s}", i, m, d.Name, d.Unit, d.Better)
			}
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// TestSmoke runs every workload untraced and traced at a hundredth of its
// size: every metric BENCHMARK.json names is emitted exactly once per run
// with a finite value and a unit, and every output check passes —
// including, in the traced runs, that the wrapped arbiters, generators
// and delivery hook leave every slice digest (and so skipped_outputs)
// what the bare run's is.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", filepath.Join(work, w.Name+".spans.jsonl")} {
			code, stdout, runs := runBench(t, "-workload", w.Name, "-seconds", smokeSeconds, "-trace", trace, "-workdir", work)
			if code != 0 || len(runs) != 1 || !runs[0].correct() {
				t.Fatalf("%s trace=%s: exit %d, runs %+v", w.Name, trace, code, runs)
			}
			lines := strings.Split(strings.TrimSpace(stdout), "\n")
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			defs := endToEnd
			if trace != "0" {
				defs = perLayer
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d with %d metrics, want %d",
					w.Name, trace, line.Correct, line.Attempted, line.Failed, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing, not finite or without its unit: %+v", w.Name, trace, d.Name, m)
					continue
				}
				measured := trace == "0" || d.on(w.Name)
				if _, inRun := runs[0].Metrics[d.Name]; inRun != measured {
					t.Errorf("%s trace=%s: metric %s measured=%v, registry says %v", w.Name, trace, d.Name, inRun, measured)
				}
				if trace == "0" && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, d.Name, *m.Value)
				}
				if d.on(w.Name) && strings.Contains(" "+strings.Join(runs[0].Filled, " ")+" ", " "+d.Name+" ") {
					t.Errorf("%s: metric %s is defined on this workload but was filled", w.Name, d.Name)
				}
			}
			if trace != "0" {
				checkSpanFile(t, trace)
			}
		}
	}
}

// checkSpanFile re-reads a span file as a consumer would.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(l), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("%s: %v", path, err)
	}
}

// TestGateFailsClosed: a wrong pinned digest makes the run exit non-zero
// and counts the slice as a failed operation.
func TestGateFailsClosed(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := loadExpectations(filepath.Join(root, "bench", "expected.json"), false)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("seed=1 cycles=%d", sliceCycles("xbar64_sparse", 0.01)*simSlices)
	if exp.Pins["xbar64_sparse"][key] == nil {
		t.Fatalf("expected.json does not pin xbar64_sparse %s", key)
	}
	pins := append([]string(nil), exp.Pins["xbar64_sparse"][key]...)
	pins[2] = "0000000000000bad"
	exp.Pins["xbar64_sparse"][key] = pins
	exp.path = filepath.Join(t.TempDir(), "expected.json")
	if err := exp.save(); err != nil {
		t.Fatal(err)
	}
	code, _, runs := runBench(t, "-workload", "xbar64_sparse", "-seconds", smokeSeconds, "-expected", exp.path)
	if code == 0 || len(runs) != 1 || runs[0].Failed != 1 || runs[0].correct() {
		t.Fatalf("wrong pin: exit %d, runs %+v; want a non-zero exit and one failed operation", code, runs)
	}
}

// TestCompareWithItself: a result compared with itself has no regression,
// has one row per end-to-end metric and workload, and judges the rows of
// the workloads each metric is defined on.
func TestCompareWithItself(t *testing.T) {
	var file resultFile
	for _, w := range workloads {
		for run := 0; run < 3; run++ {
			r := &workloadResult{Name: w.Name, Metrics: map[string]metricValue{}}
			for i, d := range endToEnd {
				r.Metrics[d.Name] = metricValue{Value: float64(10*(i+1) + run), Unit: d.Unit}
			}
			file.Runs = append(file.Runs, r)
		}
	}
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-compare", out, out}, &stdout, &stderr)
	judged := 0
	for _, d := range endToEnd {
		judged += len(d.On)
	}
	rows := strings.Count(stdout.String(), "within bound")
	all := strings.Count(stdout.String(), "\n") - 1
	if code != 0 || strings.Contains(stdout.String(), "worse") || rows != judged || all != len(endToEnd)*len(workloads) {
		t.Fatalf("self-compare: exit %d, %d of %d rows within bound, want %d of %d\n%s%s",
			code, rows, all, judged, len(endToEnd)*len(workloads), stdout.String(), stderr.String())
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(f float64) []float64 {
		b := make([]float64, len(a))
		for i, v := range a {
			b[i] = v * f
		}
		return b
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", a, a, true, "within bound"},
		{"slower", a, shift(1.2), true, "worse"},
		{"faster", a, shift(0.8), true, "better"},
		{"higher is better", a, shift(0.8), false, "worse"},
		{"small drift", a, shift(1.05), true, "within bound"},
		{"noisy", noisy, shift(1.0), true, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
}

// TestFastest: part by part the least of the passes, as long as the
// shortest pass.
func TestFastest(t *testing.T) {
	got := fastest([][]float64{{3, 1, 4, 1}, {2, 7, 1, 8}, {5, 5, 5}})
	if want := []float64{2, 1, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fastest = %v, want %v", got, want)
	}
	if fastest(nil) != nil {
		t.Error("no passes have no parts")
	}
}

// TestWrapperForwardsCapabilities: the engines pick their path from what
// an arbiter or generator implements, so a wrapper must implement exactly
// what it wraps.
func TestWrapperForwardsCapabilities(t *testing.T) {
	tr := newTracer("t")
	ab := tr.arbBounds("arb")
	vt := make([]noc.VTime, 4)
	for _, c := range []struct {
		name     string
		a        arb.Arbiter
		obs, pre bool
	}{
		{"LRG", arb.NewLRG(4), false, false},
		{"PVC", arb.NewPVC(4, vt, 8), true, true},
		{"OrigVC", arb.NewOrigVC(4, vt), true, false},
	} {
		w := ab.wrapArbiter(c.a)
		_, obs := w.(arb.ArrivalObserver)
		_, pre := w.(arb.Preemptor)
		if obs != c.obs || pre != c.pre {
			t.Errorf("%s wrapped: ArrivalObserver=%v Preemptor=%v, want %v %v", c.name, obs, pre, c.obs, c.pre)
		}
	}
	var nilBounds *arbBounds
	if a := arb.NewLRG(4); nilBounds.wrapArbiter(a) != arb.Arbiter(a) {
		t.Error("an untraced run must get the bare arbiter back")
	}
}

// TestSelfTimeOfOverlappingChildren: two connections' spans overlap; the
// parent's self time is what neither covers.
func TestSelfTimeOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "t", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: "t", Start: 10, End: 60},
		{ID: 3, Parent: 1, Trace: "t", Start: 40, End: 90},
	}
	if self := selfTimes(spans); self[0] != 20 {
		t.Errorf("self time %d, want 20", self[0])
	}
	if err := checkSpans(spans); err != nil {
		t.Error(err)
	}
	spans[2].End = 120
	if checkSpans(spans) == nil {
		t.Error("a child ending after its parent must be refused")
	}
}

// TestTallyCountsEveryFailure: the list of failure messages is capped,
// the count of failed commands is not.
func TestTallyCountsEveryFailure(t *testing.T) {
	bad := &churnResult{replies: make([]reply, 40)}
	for i := 0; i < 25; i++ {
		bad.failf("command %d refused", i)
	}
	p := &servePass{results: []*churnResult{bad, {replies: make([]reply, 40)}}}
	res := &workloadResult{}
	p.tally(res)
	if res.Attempted != 80 || res.Failed != 25 {
		t.Errorf("attempted %d failed %d, want 80 and 25", res.Attempted, res.Failed)
	}
}
