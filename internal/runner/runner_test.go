package runner

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		p := New(workers)
		got := Map(p, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results, want 100", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	var counts [257]atomic.Int64
	p := New(8)
	Map(p, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	p := New(4)
	if got := Map(p, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	if got := Map(p, 1, func(i int) int { return 42 }); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=1: got %v, want [42]", got)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS (%d)", got, runtime.GOMAXPROCS(0))
	}
	if New(-3).Workers() < 1 {
		t.Fatal("New(-3) must select at least one worker")
	}
	if got := New(7).Workers(); got != 7 {
		t.Fatalf("New(7).Workers() = %d, want 7", got)
	}
}

// TestMapScratchIsolation checks that scratch state is created at most
// once per worker and never shared across workers mid-flight.
func TestMapScratchIsolation(t *testing.T) {
	type scratch struct {
		id   int64
		busy atomic.Bool
	}
	var created atomic.Int64
	const workers, jobs = 4, 200
	p := New(workers)
	MapScratch(p, jobs, func() *scratch {
		return &scratch{id: created.Add(1)}
	}, func(s *scratch, i int) struct{} {
		if !s.busy.CompareAndSwap(false, true) {
			t.Error("scratch used by two jobs concurrently")
		}
		s.busy.Store(false)
		return struct{}{}
	})
	if c := created.Load(); c < 1 || c > workers {
		t.Fatalf("created %d scratch values, want 1..%d", c, workers)
	}
}

// TestMapPanicPropagates pins the panic contract: a serial run panics
// natively with the original value, while a parallel run re-raises a
// *JobPanic preserving the value, the job index, and the stack captured
// at the panic site (so sweep-point failures stay debuggable).
func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers <= 1 {
					if r != "boom" {
						t.Fatalf("workers=%d: serial panic value = %v, want the original \"boom\"", workers, r)
					}
					return
				}
				jp, ok := r.(*JobPanic)
				if !ok {
					t.Fatalf("workers=%d: panic value is %T, want *JobPanic", workers, r)
				}
				if jp.Value != "boom" {
					t.Fatalf("workers=%d: JobPanic.Value = %v, want \"boom\"", workers, jp.Value)
				}
				if jp.Index != 7 {
					t.Fatalf("workers=%d: JobPanic.Index = %d, want 7", workers, jp.Index)
				}
				if !strings.Contains(string(jp.Stack), "TestMapPanicPropagates") {
					t.Fatalf("workers=%d: captured stack does not reach the panic site:\n%s", workers, jp.Stack)
				}
				if msg := jp.Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, "job 7") {
					t.Fatalf("workers=%d: Error() = %q misses value or index", workers, msg)
				}
			}()
			Map(p, 16, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

// TestJobPanicUnwrap checks errors.As sees through JobPanic to an error
// panic value.
func TestJobPanicUnwrap(t *testing.T) {
	cause := errors.New("cause")
	p := New(2)
	defer func() {
		r := recover()
		jp, ok := r.(*JobPanic)
		if !ok {
			t.Fatalf("panic value is %T, want *JobPanic", r)
		}
		if !errors.Is(jp, cause) {
			t.Fatalf("errors.Is(%v, cause) = false, want true", jp)
		}
	}()
	Map(p, 8, func(i int) int {
		if i == 3 {
			panic(cause)
		}
		return i
	})
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(1, i)
		if s == 0 {
			t.Fatalf("DeriveSeed(1, %d) = 0", i)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision: indices %d and %d", j, i)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 5) != DeriveSeed(1, 5) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("DeriveSeed ignores the base seed")
	}
}

// TestMapConcurrentStress is the -race smoke test: many pools running
// overlapping Maps from concurrent goroutines, with jobs that hammer the
// shared result slice from every worker.
func TestMapConcurrentStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := New(8)
			for rep := 0; rep < 5; rep++ {
				sum := 0
				for _, v := range Map(p, 64, func(i int) int { return g*1000 + i }) {
					sum += v
				}
				want := 64*g*1000 + 63*64/2
				if sum != want {
					t.Errorf("goroutine %d rep %d: sum %d, want %d", g, rep, sum, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// runBodies runs body k under the budget at rank k, all at once, and
// waits for them; it then checks that every processor came back.
func runBodies(t *testing.T, b *Budget, bodies ...func(p *Pool)) {
	t.Helper()
	var wg sync.WaitGroup
	for rank, body := range bodies {
		p := b.Pool(rank)
		wg.Add(1)
		p.Go(func() {
			defer wg.Done()
			body(p)
		})
	}
	wg.Wait()
	checkIdle(t, b)
}

// checkIdle fails unless the budget has all its processors and nobody
// waiting. A body's processor is released after the body returns, so
// the check waits for that.
func checkIdle(t *testing.T, b *Budget) {
	t.Helper()
	for {
		b.mu.Lock()
		free, waiting := b.free, len(b.waiters)
		b.mu.Unlock()
		if free == b.size && waiting == 0 {
			return
		}
		if free > b.size {
			t.Fatalf("budget of %d has %d free processors", b.size, free)
		}
		runtime.Gosched()
	}
}

// gauge counts what is running now and the most that ever ran at once.
type gauge struct{ now, max atomic.Int64 }

// run brackets a stretch of work that occupies a processor.
func (g *gauge) run() {
	n := g.now.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			break
		}
	}
	for i := 0; i < 3; i++ {
		runtime.Gosched()
	}
	g.now.Add(-1)
}

// TestBudgetBoundsAllPools: several pools on one budget, bodies that
// work before, between and after their Maps and jobs that Map again,
// never run more than N stretches of work at once, and every Map still
// returns its results by index.
func TestBudgetBoundsAllPools(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		b := NewBudget(n)
		var g gauge
		body := func(p *Pool) {
			g.run()
			for rep := 0; rep < 3; rep++ {
				got := Map(p, 20, func(i int) int {
					g.run()
					inner := Map(p, 3, func(j int) int { g.run(); return j })
					g.run()
					return i*i + inner[2]
				})
				for i, v := range got {
					if v != i*i+2 {
						t.Errorf("N=%d: result[%d] = %d, want %d", n, i, v, i*i+2)
					}
				}
				g.run()
			}
		}
		runBodies(t, b, body, body, body, body, body)
		if m := g.max.Load(); m > int64(n) {
			t.Errorf("N=%d: %d stretches of work ran at once", n, m)
		} else if n > 1 && m < 2 {
			t.Errorf("N=%d: nothing ever ran in parallel", n)
		}
	}
}

// TestBudgetServesRanksInOrder: with one processor and two pools
// queued behind it, the later-queued but lower rank runs all its jobs
// first; and a pool already running gives way to a lower rank between
// two jobs, not before its running job ends and not after the next.
func TestBudgetServesRanksInOrder(t *testing.T) {
	var (
		mu  sync.Mutex
		log []string
	)
	note := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	jobs := func(p *Pool, name string, extra func(i int)) {
		Map(p, 3, func(i int) int {
			note(name)
			if extra != nil {
				extra(i)
			}
			return i
		})
	}

	b := NewBudget(1)
	var wg sync.WaitGroup
	wg.Add(4)
	gate := make(chan struct{})
	b.Pool(0).Go(func() { defer wg.Done(); <-gate }) // holds the one processor
	b.Pool(2).Go(func() { defer wg.Done(); jobs(b.Pool(2), "c", nil) })
	b.Pool(1).Go(func() {
		defer wg.Done()
		jobs(b.Pool(1), "b", func(i int) {
			if i == 0 { // rank 0 arrives while rank 1's first job runs
				b.Pool(0).Go(func() { defer wg.Done(); jobs(b.Pool(0), "a", nil) })
			}
		})
	})
	close(gate)
	wg.Wait()
	checkIdle(t, b)
	if got, want := strings.Join(log, ""), "baaabbccc"; got != want {
		t.Fatalf("jobs ran in order %q, want %q", got, want)
	}
}

// TestBudgetPanicLeaksNoProcessor: a panicking job on a shared budget
// still surfaces on the body as a *JobPanic with its index and stack,
// and the budget is whole afterwards: a following Map completes.
func TestBudgetPanicLeaksNoProcessor(t *testing.T) {
	b := NewBudget(4)
	body := func(p *Pool) {
		func() {
			defer func() {
				jp, ok := recover().(*JobPanic)
				if !ok || jp.Index != 7 || jp.Value != "boom" ||
					!strings.Contains(string(jp.Stack), "TestBudgetPanicLeaksNoProcessor") {
					t.Errorf("recovered %v, want a *JobPanic of job 7 with its stack", jp)
				}
			}()
			Map(p, 16, func(i int) int {
				if i == 7 {
					panic("boom")
				}
				runtime.Gosched()
				return i
			})
		}()
		if got := Map(p, 16, func(i int) int { return i }); len(got) != 16 || got[15] != 15 {
			t.Errorf("Map after a panic returned %v", got)
		}
	}
	runBodies(t, b, body, body)
}
