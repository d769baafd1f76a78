package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkJSON is the part of BENCHMARK.json the comparison reads: the
// bound by which each end-to-end metric may worsen.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// samples are one side's values of every end-to-end metric, per workload,
// in run order.
type samples map[string]map[string][]float64

func (s samples) add(workload, metric string, v float64) {
	if s[workload] == nil {
		s[workload] = map[string][]float64{}
	}
	s[workload][metric] = append(s[workload][metric], v)
}

func loadSamples(path string) (samples, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := samples{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		for name, m := range r.Metrics {
			s.add(r.Name, name, m.Value)
		}
	}
	return s, nil
}

// verdict judges B against A for one metric on one workload, following
// the choosing-metrics guide: a median worse by more than the bound is a
// regression; where either side's run-to-run spread (quartile distance
// over median) is wider than the bound the pairing is unresolved, unless
// every run of B reads better than every run of A; a gain needs B to win
// nine tenths of the pairs and the medians to differ by more than A's own
// spread.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	better := func(x, y float64) bool {
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	allBetter, wins, ties := true, 0, 0
	for _, vb := range b {
		for _, va := range a {
			if !better(vb, va) {
				allBetter = false
			}
		}
	}
	paired := len(a) == len(b)
	if paired {
		for i := range a {
			switch {
			case better(b[i], a[i]):
				wins++
			case b[i] == a[i]:
				ties++
			}
		}
	}
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spreadA := (q3a - q1a) / ma
	spreadB := 0.0
	if mb != 0 {
		spreadB = (q3b - q1b) / mb
	}
	switch {
	case (spreadA > bound || spreadB > bound) && !allBetter:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spreadA && worse < 0 && (allBetter || (paired && float64(wins) >= 0.9*float64(len(a)-ties))):
		return "better"
	}
	return "within bound"
}

// printComparison prints one row per end-to-end metric and workload and
// reports whether any row is worse. Only the workloads a metric is defined
// on are judged: elsewhere the value is a fill, or a set-up of 0.1 s.
func printComparison(w io.Writer, bj *benchmarkJSON, a, b samples) bool {
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-17s %-5s %34s %34s %18s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1,q3] n", "B median [q1,q3] n", "B/A (base A)", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bj.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := "not judged"
			if def := findMetric(m.Name); def != nil && def.on(wl.Name) {
				v = verdict(va, vb, m.Better == "lower", m.Bound)
			}
			if v == "worse" {
				anyWorse = true
			}
			ma, mb := median(va), median(vb)
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f (%.4g)", mb/ma, ma)
			}
			fmt.Fprintf(w, "%-14s %-17s %-5s %34s %34s %18s %6.2f  %s\n", wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g,%.4g] %d", ma, q1a, q3a, len(va)),
				fmt.Sprintf("%.4g [%.4g,%.4g] %d", mb, q1b, q3b, len(vb)),
				ratio, m.Bound, v)
		}
	}
	return anyWorse
}

// compareMain handles -compare: two result files, or with -pairs two
// checkouts whose bench binaries it builds once and runs alternately.
func compareMain(ctx context.Context, root string, args []string, pairs int, workload string,
	seed uint64, secs float64, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files, or with -pairs two checkout directories")
		return 2
	}
	bj, err := loadBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var a, b samples
	if pairs > 0 {
		a, b, err = runPairs(ctx, root, args[0], args[1], pairs, workload, seed, secs, stderr)
	} else {
		if a, err = loadSamples(args[0]); err == nil {
			b, err = loadSamples(args[1])
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if printComparison(stdout, bj, a, b) {
		return 1
	}
	return 0
}

// runPairs builds ./bench in two checkouts and runs the two binaries in
// alternation, swapping which side goes first on every pair, with the
// same seed for both sides of a pair.
func runPairs(ctx context.Context, root, dirA, dirB string, pairs int, workload string,
	seed uint64, secs float64, log io.Writer) (samples, samples, error) {
	work, cleanup, err := makeWorkdir(root, "")
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	type side struct {
		dir, bin string
		got      samples
	}
	sides := [2]*side{{dir: dirA, got: samples{}}, {dir: dirB, got: samples{}}}
	for i, s := range sides {
		s.bin = filepath.Join(work, fmt.Sprintf("bench-%c", 'a'+i))
		cmd := exec.CommandContext(ctx, "go", "build", "-o", s.bin, "./bench")
		cmd.Dir = s.dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, nil, fmt.Errorf("go build ./bench in %s: %v\n%s", s.dir, err, msg)
		}
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	for _, name := range names {
		for p := 0; p < pairs; p++ {
			for k := 0; k < 2; k++ {
				s := sides[(p+k)%2]
				cmd := exec.CommandContext(ctx, s.bin, "-workload", name, "-trace", "0",
					"-seed", strconv.FormatUint(seed+uint64(p), 10), "-seconds", strconv.FormatFloat(secs, 'g', -1, 64))
				cmd.Dir = s.dir
				cmd.Stderr = io.Discard
				out, err := cmd.Output()
				if err != nil {
					return nil, nil, fmt.Errorf("%s -workload %s: %v", s.bin, name, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
				var line struct {
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					return nil, nil, fmt.Errorf("%s -workload %s: result line: %w", s.bin, name, err)
				}
				for m, v := range line.Metrics {
					s.got.add(name, m, v.Value)
				}
				fmt.Fprintf(log, "bench: pair %d/%d %s %s done\n", p+1, pairs, name, s.dir)
			}
		}
	}
	return sides[0].got, sides[1].got, nil
}
