package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the driver computes spreads with. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0
	}
	if m == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..100) by nearest rank.
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	k := int(float64(len(s))*p/100+0.9999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// fastest returns, part by part, the least of what the passes took:
// passes[p][i] is part i in pass p, and every pass did the same work.
// Interference from outside the process only ever slows a part down, so
// the fastest of a part's executions is the code's speed and the rest is
// the host's. A pass that stopped early shortens the result to its length.
func fastest(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := append([]float64(nil), passes[0]...)
	for _, p := range passes[1:] {
		if len(p) < len(out) {
			out = out[:len(p)]
		}
		for i := range out {
			out[i] = math.Min(out[i], p[i])
		}
	}
	return out
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// setMedian records the median of samples with its quartiles and count.
func (r *workloadResult) setMedian(name string, samples []float64) {
	q1, q3 := quartiles(samples)
	r.setSamples(name, median(samples), q1, q3, len(samples))
}

// setFastest records the least of samples with their quartiles and count.
func (r *workloadResult) setFastest(name string, samples []float64) {
	q1, q3 := quartiles(samples)
	r.setSamples(name, percentile(samples, 0), q1, q3, len(samples))
}

// setPercentile records the p-th percentile of samples with their
// quartiles and count.
func (r *workloadResult) setPercentile(name string, samples []float64, p float64) {
	q1, q3 := quartiles(samples)
	r.setSamples(name, percentile(samples, p), q1, q3, len(samples))
}

// totalAlloc reads the bytes allocated by this process so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func megabytes(from, to uint64) float64 {
	if to < from {
		return 0
	}
	return float64(to-from) / 1e6
}

// perOp times fn, which performs n operations per call, in batches of
// about 5 ms until budget has elapsed, and returns the median batch's
// nanoseconds per operation.
func perOp(budget time.Duration, fn func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d > 2*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 4
	}
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 3; {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// expectations are the digests pinned in expected.json: workload, then a
// key naming seed and size, then the values in order. A run whose key is
// not pinned skips the pin; a run whose key is pinned must match it.
type expectations struct {
	path  string
	repin bool
	Pins  map[string]map[string][]string
}

func loadExpectations(path string, repin bool) (*expectations, error) {
	x := &expectations{path: path, repin: repin, Pins: map[string]map[string][]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		if repin && os.IsNotExist(err) {
			return x, nil
		}
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	if err := json.Unmarshal(data, &x.Pins); err != nil {
		return nil, fmt.Errorf("pinned digests %s: %w", path, err)
	}
	return x, nil
}

// pinned returns the values pinned for a run, or nil. Under -repin it
// records got as the new pin and returns it, so the run checks clean.
func (x *expectations) pinned(workload, key string, got []string) []string {
	if x.repin {
		if x.Pins[workload] == nil {
			x.Pins[workload] = map[string][]string{}
		}
		x.Pins[workload][key] = got
		return got
	}
	return x.Pins[workload][key]
}

// pinned looks up the run's pins and says so when a seed-1 run, the seed
// expected.json pins, has none at this size.
func (e *env) pinned(key string, got []string) []string {
	pins := e.expected.pinned(e.name, key, got)
	if pins == nil && e.seed == 1 {
		fmt.Fprintf(e.log, "bench: %s: no pin for %s in expected.json; only the run-against-run checks apply\n", e.name, key)
	}
	return pins
}

func (x *expectations) save() error {
	data, err := json.MarshalIndent(x.Pins, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(x.path, append(data, '\n'), 0o644)
}
