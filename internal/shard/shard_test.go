package shard

import (
	"errors"
	"fmt"
	"testing"

	"swizzleqos/internal/noc"
)

// runProgram builds a toy engine: each cycle, every shard scales and
// increments its own slots (parallel), then a serial stage folds a
// checksum in ascending slot order. The checksum is order-sensitive,
// so it detects any deviation from the deterministic stage order.
func runProgram(workers int, cycles noc.Cycle, shards, slots int) (state []uint64, sum uint64) {
	state = make([]uint64, slots)
	for i := range state {
		state[i] = uint64(i)
	}
	// Shard k owns the slots i with i%shards == k.
	ex := NewExecutor(shards, workers)
	program := []Stage{
		{Par: func(k int) {
			for i := k; i < slots; i += shards {
				state[i] = state[i]*31 + 1
			}
		}},
		{Serial: func() {
			for i := range state {
				sum = sum*6364136223846793005 + state[i]
			}
		}},
	}
	ex.Cycles(cycles, program, nil)
	return state, sum
}

// TestExecutorDeterministicAcrossWorkers pins the core guarantee: the
// same program produces bit-identical state at any worker count,
// including forced worker counts above GOMAXPROCS (the -race run
// exercises the real barrier path even on a single-core host).
func TestExecutorDeterministicAcrossWorkers(t *testing.T) {
	wantState, wantSum := runProgram(1, 200, 8, 37)
	for _, workers := range []int{2, 3, 8} {
		state, sum := runProgram(workers, 200, 8, 37)
		if sum != wantSum {
			t.Fatalf("workers=%d checksum %#x, want %#x", workers, sum, wantSum)
		}
		for i := range state {
			if state[i] != wantState[i] {
				t.Fatalf("workers=%d state[%d] = %d, want %d", workers, i, state[i], wantState[i])
			}
		}
	}
}

// TestExecutorStop verifies the early exit is evaluated at cycle
// boundaries and stays consistent across workers.
func TestExecutorStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ex := NewExecutor(4, workers)
		var cycles int
		var stopAt = 7
		program := []Stage{
			{Par: func(k int) {}},
			{Serial: func() { cycles++ }},
		}
		ex.Cycles(1000, program, func() bool { return cycles >= stopAt })
		if cycles != stopAt {
			t.Fatalf("workers=%d ran %d cycles, want %d", workers, cycles, stopAt)
		}
	}
}

// TestExecutorWorkerClamp checks the worker bound degrades to the shard
// count and never goes below one.
func TestExecutorWorkerClamp(t *testing.T) {
	if got := NewExecutor(4, 64).Workers(); got != 4 {
		t.Fatalf("workers clamped to %d, want 4 (shard count)", got)
	}
	if got := NewExecutor(0, 0).Shards(); got != 1 {
		t.Fatalf("shards clamped to %d, want 1", got)
	}
	if got := NewExecutor(8, 0).Workers(); got < 1 || got > 8 {
		t.Fatalf("auto workers = %d, want within [1,8]", got)
	}
}

// TestExecutorPanicRERaise verifies a stage panic on any worker is
// re-raised on the caller as a *TeamPanic without deadlocking peers.
func TestExecutorPanicReRaise(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{2, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic propagated", workers)
				}
				tp, ok := r.(*TeamPanic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *TeamPanic", workers, r)
				}
				if !errors.Is(tp, boom) {
					t.Fatalf("workers=%d: unwrapped %v, want %v", workers, tp.Unwrap(), boom)
				}
				if len(tp.Stack) == 0 || tp.Error() == "" {
					t.Fatalf("workers=%d: missing stack capture", workers)
				}
			}()
			ex := NewExecutor(4, workers)
			ex.Cycles(10, []Stage{{Par: func(k int) {
				if k == 2 {
					panic(boom)
				}
			}}}, nil)
		}()
	}
}

// TestExecutorSerialOnlyOnce ensures serial stages run exactly once per
// cycle regardless of worker count.
func TestExecutorSerialOnlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		ex := NewExecutor(5, workers)
		serial := 0
		par := make([]int, 5)
		ex.Cycles(13, []Stage{
			{Par: func(k int) { par[k]++ }},
			{Serial: func() { serial++ }},
		}, nil)
		if serial != 13 {
			t.Fatalf("workers=%d: serial stage ran %d times, want 13", workers, serial)
		}
		for k, n := range par {
			if n != 13 {
				t.Fatalf("workers=%d: shard %d ran %d times, want 13", workers, k, n)
			}
		}
	}
}

// TestExecutorCrossShardVisibility verifies the barrier publishes one
// stage's writes to the next stage's readers: shard k reads its
// neighbour's previous-stage output, which is exactly the one-cycle
// lookahead pattern engines rely on for halo exchange.
func TestExecutorCrossShardVisibility(t *testing.T) {
	const shards = 6
	for _, workers := range []int{1, 3, 6} {
		a := make([]uint64, shards)
		b := make([]uint64, shards)
		ex := NewExecutor(shards, workers)
		ex.Cycles(50, []Stage{
			{Par: func(k int) { a[k]++ }},
			{Par: func(k int) { b[k] += a[(k+1)%shards] }},
		}, nil)
		for k := range b {
			// After n cycles, b[k] = 1+2+...+n of the neighbour's counter.
			if want := uint64(50 * 51 / 2); b[k] != want {
				t.Fatalf("workers=%d: b[%d] = %d, want %d", workers, k, b[k], want)
			}
		}
	}
}

func ExampleExecutor() {
	sums := make([]int, 2)
	ex := NewExecutor(2, 1)
	ex.Cycles(3, []Stage{
		{Par: func(k int) { sums[k] += k + 1 }},
	}, nil)
	fmt.Println(sums)
	// Output: [3 6]
}
