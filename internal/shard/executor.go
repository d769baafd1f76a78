// Package shard is a goroutine team that runs a per-cycle program of
// stages over a fixed shard count, with a barrier between stages. No
// engine imports it: each engine runs one serial cycle (DESIGN.md "No
// intra-run parallelism"). It stays only because the benchmark harness
// under bench/ still times one stage barrier of a two-worker team with
// it, and it goes together with those kernels.
package shard

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"swizzleqos/internal/noc"
)

// Stage is one step of an engine's per-cycle program. Exactly one of
// the two fields is set:
//
//   - Par runs once per shard within the stage; calls for different
//     shards may execute concurrently on different workers, so Par(k)
//     must touch only shard k's state (plus read-only state no stage
//     writes this cycle).
//   - Serial runs once, on the coordinating worker, while every other
//     worker holds at the stage barrier. Cross-shard effects (boundary
//     commits, counter merges, pool-backed grants) belong here, applied
//     in ascending shard order so the result is independent of how the
//     parallel stages were scheduled.
//
// A barrier separates consecutive stages: no part of stage i+1 starts
// until every shard of stage i has finished.
type Stage struct {
	Par    func(k int)
	Serial func()
}

// TeamPanic is re-raised on the Cycles caller when a stage function
// panics on a worker goroutine, preserving the original value and the
// stack captured at the panic site (an inline run — one worker —
// panics natively, untouched).
type TeamPanic struct {
	// Value is the original value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

// Error formats the panic with the captured stack.
func (tp *TeamPanic) Error() string {
	return fmt.Sprintf("shard: stage panicked: %v\n\nworker goroutine stack:\n%s", tp.Value, tp.Stack)
}

// Unwrap returns the original panic value when it was an error.
func (tp *TeamPanic) Unwrap() error {
	if err, ok := tp.Value.(error); ok {
		return err
	}
	return nil
}

// Executor runs cycle programs over a fixed shard count. The worker
// count is pure mechanism and cannot change results by construction —
// the same stages run in the same order with the same barriers, whether
// on one goroutine or many.
type Executor struct {
	shards  int
	workers int
}

// NewExecutor returns an executor over the given shard count. workers
// bounds the goroutines a Cycles call uses; a value <= 0 selects
// min(shards, GOMAXPROCS), so a host with fewer processors than shards
// degrades toward the sequential fallback instead of oversubscribing.
func NewExecutor(shards, workers int) *Executor {
	if shards < 1 {
		shards = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	return &Executor{shards: shards, workers: workers}
}

// Shards returns the shard count.
func (e *Executor) Shards() int { return e.shards }

// Workers returns the bound on worker goroutines per Cycles call.
func (e *Executor) Workers() int { return e.workers }

// Cycles runs the stage program n times. stop, if non-nil, is consulted
// at every cycle boundary and ends the run early when it reports true;
// it must be a pure read of state written only by Serial stages, so
// every worker evaluates it identically (the cycle's final barrier
// orders those writes before the reads).
//
// With one worker the program runs inline on the caller — no
// goroutines, no barriers, no atomics — which is also the execution
// order the parallel mode's barriers reproduce. A panic in any stage
// aborts the team and is re-raised on the caller as a *TeamPanic.
func (e *Executor) Cycles(n noc.Cycle, program []Stage, stop func() bool) {
	if n == 0 || len(program) == 0 {
		return
	}
	workers := e.workers
	if workers > e.shards {
		workers = e.shards
	}
	if workers <= 1 {
		e.runInline(n, program, stop)
		return
	}
	// The team state is per-call: a run that aborts leaves no residue
	// for the next Run/Step to trip over. Goroutine startup amortizes
	// over the n cycles of the call (engines dispatch whole Run windows,
	// not single Steps, on the hot path).
	t := &team{n: int32(workers)}
	var wg sync.WaitGroup
	for id := 1; id < workers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.run(t, id, n, program, stop)
		}()
	}
	e.run(t, 0, n, program, stop)
	wg.Wait()
	if pv := t.abort.Load(); pv != nil {
		panic(&TeamPanic{Value: pv.v, Stack: pv.stack})
	}
}

// runInline is the sequential fallback and the shards=1 path: the exact
// stage-and-shard order the barriers enforce, with zero synchronization.
//
//ssvc:hotpath
func (e *Executor) runInline(n noc.Cycle, program []Stage, stop func() bool) {
	for c := noc.Cycle(0); c < n; c++ {
		if stop != nil && stop() {
			return
		}
		for _, st := range program {
			if st.Serial != nil {
				st.Serial()
				continue
			}
			for k := 0; k < e.shards; k++ {
				st.Par(k)
			}
		}
	}
}

// panicValue carries a recovered panic from a worker to the caller.
type panicValue struct {
	v     any
	stack []byte
}

// team is the per-Cycles barrier state shared by the workers.
type team struct {
	n     int32
	count atomic.Int32
	phase atomic.Uint64
	abort atomic.Pointer[panicValue]
}

// wait is the stage barrier: the last arriver of a phase resets the
// count and publishes the phase number, releasing the spinners. The
// phase counter (not a reversing sense bit) makes reuse across
// thousands of cycles trivially safe. Spinners yield the processor
// periodically so the barrier stays live even when workers outnumber
// cores, and poll the abort flag so a panicking peer cannot strand
// them. Returns false when the team aborted.
//
//ssvc:hotpath
func (t *team) wait(local *uint64) bool {
	target := *local + 1
	*local = target
	if t.count.Add(1) == t.n {
		t.count.Store(0)
		t.phase.Store(target)
	} else {
		for spins := 0; t.phase.Load() < target; spins++ {
			if t.abort.Load() != nil {
				return false
			}
			if spins&63 == 63 {
				runtime.Gosched()
			}
		}
	}
	return t.abort.Load() == nil
}

// run is one worker's traversal of the program: worker w executes
// shards w, w+n, w+2n, ... of each parallel stage (a static assignment,
// so the shard-to-worker mapping is deterministic too, though results
// never depend on it) and worker 0 executes the serial stages.
func (e *Executor) run(t *team, w int, n noc.Cycle, program []Stage, stop func() bool) {
	defer func() {
		if r := recover(); r != nil {
			t.abort.CompareAndSwap(nil, &panicValue{v: r, stack: debug.Stack()})
		}
	}()
	var local uint64
	workers := int(t.n)
	for c := noc.Cycle(0); c < n; c++ {
		// Every worker reads the same serially-written state (the final
		// barrier of the previous cycle ordered it), so all make the
		// same decision and stay barrier-aligned.
		if stop != nil && stop() {
			return
		}
		for _, st := range program {
			if st.Serial != nil {
				if w == 0 {
					st.Serial()
				}
			} else {
				for k := w; k < e.shards; k += workers {
					st.Par(k)
				}
			}
			if !t.wait(&local) {
				return
			}
		}
	}
}
