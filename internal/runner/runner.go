// Package runner executes independent simulation jobs on a bounded
// budget of processors with deterministic, ordered result collection.
//
// The paper's evaluation (§4) is a family of independent sweep points —
// injection rates in Figure 4, counter policies in Figure 5, reservation
// mixes in the adherence study — and each point builds its own
// switchsim.Switch, traffic generators, and statistics collector from a
// seed derived purely from the point's index. Because a job is a pure
// function of its index and results are stored by index, every table the
// experiment harness renders is byte-identical at any worker count; only
// wall-clock time changes.
package runner

import (
	"cmp"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// JobPanic is re-raised on the caller when a parallel job panics: it
// wraps the job's original panic value together with the job index and
// the stack captured at the panic site, which the re-raise on the
// calling goroutine would otherwise destroy. Recover-and-inspect code
// can type-assert for *JobPanic to get at the original value.
type JobPanic struct {
	// Index is the job index whose function panicked.
	Index int
	// Value is the original value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, captured at recover time.
	Stack []byte
}

// Error formats the panic with its origin and captured stack, so even an
// unrecovered crash report shows where the job died.
func (jp *JobPanic) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v\n\njob goroutine stack:\n%s", jp.Index, jp.Value, jp.Stack)
}

// Unwrap returns the original panic value when it was an error, letting
// errors.Is/As see through the wrapper.
func (jp *JobPanic) Unwrap() error {
	if err, ok := jp.Value.(error); ok {
		return err
	}
	return nil
}

// Budget is a fixed number of processors shared by every Pool drawn
// from it. A processor is what a sweep point or an experiment body runs
// on: no more of them run at once, across all of the budget's pools,
// than the budget has. Whoever wants a processor and finds none free
// waits in (rank, arrival) order, lower ranks first. A running job is
// never preempted, but a worker between two jobs hands its processor to
// a waiter of lower rank before it takes another (see yield), so a low
// rank waits for at most one job of a higher one.
//
// The rule that keeps this free of deadlock at any size, one included:
// a goroutine that holds a processor never waits for another one. It
// gives its own up first, at a yield and at a join (see MapScratch).
type Budget struct {
	mu   sync.Mutex
	size int
	// free counts processors nobody holds. A processor given up while
	// anyone waits goes straight to the first waiter, so waiters is
	// empty whenever free > 0.
	free    int
	seq     uint64
	waiters []*waiter
}

// waiter is one queue entry: a request for want processors, each of
// which is taken by one call of grant. grant runs with the budget's
// lock held and must not block.
type waiter struct {
	rank  int
	seq   uint64
	want  int
	grant func()
}

// NewBudget returns a budget of n processors; n <= 0 selects
// runtime.GOMAXPROCS(0), saturating the machine.
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Budget{size: n, free: n}
}

// Pool returns the budget's pool of the given rank. Its Map and
// MapScratch must be called by a goroutine that holds one of the
// budget's processors: the body of a Go, or a job.
func (b *Budget) Pool(rank int) *Pool { return &Pool{b: b, rank: rank} }

// request asks for want processors at a rank: the free ones are granted
// at once and the rest queued. It returns the queue entry, or nil when
// nothing had to wait. Called with mu held.
func (b *Budget) request(rank, want int, grant func()) *waiter {
	for ; want > 0 && b.free > 0; want-- {
		b.free--
		grant()
	}
	if want == 0 {
		return nil
	}
	b.seq++
	w := &waiter{rank: rank, seq: b.seq, want: want, grant: grant}
	b.waiters = append(b.waiters, w)
	return w
}

// first returns the waiter next in (rank, arrival) order, or nil. The
// queue holds an entry per waiting pool, a few dozen at most, and is
// read once per finished job, so it is scanned, not kept as a heap.
// Called with mu held.
func (b *Budget) first() *waiter {
	if len(b.waiters) == 0 {
		return nil
	}
	return slices.MinFunc(b.waiters, func(x, y *waiter) int {
		return cmp.Or(cmp.Compare(x.rank, y.rank), cmp.Compare(x.seq, y.seq))
	})
}

// withdraw takes a waiter out of the queue, if it is still there.
// Called with mu held.
func (b *Budget) withdraw(w *waiter) {
	if i := slices.Index(b.waiters, w); i >= 0 {
		b.waiters = slices.Delete(b.waiters, i, i+1)
	}
}

// handTo gives one processor, the caller's own, to a waiter. Called
// with mu held.
func (b *Budget) handTo(w *waiter) {
	if w.want--; w.want == 0 {
		b.withdraw(w)
	}
	w.grant()
}

// release gives up the caller's processor: to the first waiter if there
// is one, back to the budget otherwise. Called with mu held.
func (b *Budget) release() {
	if w := b.first(); w != nil {
		b.handTo(w)
		return
	}
	b.free++
}

// yield is what a worker does between two jobs: if a pool of lower rank
// is waiting, the worker hands it its processor and waits in the queue,
// at its own rank, to get one back.
func (b *Budget) yield(rank int) {
	b.mu.Lock()
	w := b.first()
	if w == nil || w.rank >= rank {
		b.mu.Unlock()
		return
	}
	back := make(chan struct{})
	b.handTo(w)
	b.request(rank, 1, func() { close(back) })
	b.mu.Unlock()
	<-back
}

// Pool is a bounded worker pool for independent jobs: a Budget and the
// rank at which this pool draws on it. The zero value is not useful;
// create one with New, or with Budget.Pool to share one budget between
// several pools. A Pool may be shared and used concurrently.
type Pool struct {
	b    *Budget
	rank int
}

// New returns a pool running at most workers jobs concurrently, on a
// budget of its own. A value <= 0 selects runtime.GOMAXPROCS(0),
// saturating the machine. Whoever calls Map holds a processor (see
// Budget.Pool); on a private budget nobody ever asked for it, so one of
// the budget's processors is set aside as the caller's from the start.
func New(workers int) *Pool {
	b := NewBudget(workers)
	b.free--
	return b.Pool(0)
}

// Workers returns the pool's concurrency bound, the size of its budget.
func (p *Pool) Workers() int { return p.b.size }

// Go runs fn on a new goroutine that holds one of the budget's
// processors, as soon as one is free for the pool's rank; fn may call
// Map on the pool. The request is queued before Go returns, so requests
// of one rank are served in the order of the calls. Go does not wait
// for fn.
func (p *Pool) Go(fn func()) {
	b := p.b
	b.mu.Lock()
	b.request(p.rank, 1, func() {
		go func() {
			defer func() {
				b.mu.Lock()
				b.release()
				b.mu.Unlock()
			}()
			fn()
		}()
	})
	b.mu.Unlock()
}

// Map runs fn(i) for every i in [0, n) across the pool's workers and
// returns the results in index order. fn must not share mutable state
// across indices. A panic in any job is re-raised on the calling
// goroutine after all workers have stopped, wrapped in a *JobPanic that
// preserves the original value and the stack captured at the panic site
// (a serial run — one worker, or one job — panics natively, untouched).
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	return MapScratch(p, n, func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return fn(i) })
}

// MapScratch is Map with per-worker scratch state: newScratch runs once
// per worker and its value is passed to every job that worker executes.
// It exists so hot sweep loops can recycle expensive per-run structures
// (statistics collectors, buffers) without any cross-worker sharing.
// Scratch state must be fully reset by fn between runs; results must not
// alias it.
//
// The caller holds a processor and is the first worker: it lends its
// processor to the jobs it runs itself. Up to min(budget, n)-1 helpers
// join as processors come free at the pool's rank. At the join the
// caller gives its processor up while helpers still run, and the last
// worker to finish passes its own to the caller instead of releasing
// it: neither fork nor join waits in the queue, and a Map inside a job
// follows the same rule.
func MapScratch[S, T any](p *Pool, n int, newScratch func() S, fn func(s S, i int) T) []T {
	if n <= 0 {
		return nil
	}
	results := make([]T, n)
	b := p.b
	helpers := min(b.size, n) - 1
	var (
		next     atomic.Int64
		panicked atomic.Pointer[JobPanic]
		// Guarded by b.mu: the workers that have not left yet, the
		// caller included, and the queue entry that asks for helpers.
		active = 1
		ticket *waiter
		joined = make(chan struct{})
	)
	// work is the job loop of every worker, then its part in the join.
	work := func(caller bool) {
		scratch := newScratch()
		for panicked.Load() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			// Each job runs under its own recover so the panic can be
			// tagged with the job index and the stack captured while
			// the panicking frames are still live; the first failing
			// job wins and is re-raised after all workers drain. A
			// serial run has no other goroutine to drain and lets the
			// panic through.
			func() {
				defer func() {
					if helpers == 0 {
						return
					}
					if r := recover(); r != nil {
						panicked.CompareAndSwap(nil, &JobPanic{
							Index: i, Value: r, Stack: debug.Stack(),
						})
					}
				}()
				results[i] = fn(scratch, i)
			}()
			if int(next.Load()) < n {
				b.yield(p.rank)
			}
		}
		b.mu.Lock()
		b.withdraw(ticket) // a helper that starts now would find nothing to do
		active--
		last := active == 0
		switch {
		case !last:
			b.release()
		case !caller:
			close(joined) // and with it the processor, to the caller
		}
		b.mu.Unlock()
		if caller && !last {
			<-joined
		}
	}
	if helpers > 0 {
		b.mu.Lock()
		ticket = b.request(p.rank, helpers, func() {
			active++
			go work(false)
		})
		b.mu.Unlock()
	}
	work(true)
	if jp := panicked.Load(); jp != nil {
		//ssvc:allow panicfreeze re-raises a worker panic on the caller; swallowing it would hide the original bug
		panic(jp)
	}
	return results
}

// DeriveSeed returns a per-job RNG seed from a base seed and a job index,
// via a SplitMix64 round. Deriving rather than offsetting keeps sibling
// jobs' RNG streams statistically independent while remaining a pure
// function of (base, index) — the property the determinism guarantee
// rests on.
func DeriveSeed(base uint64, index int) uint64 {
	z := base + 0x9E3779B97F4A7C15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 { // seed 0 selects "default" in several generators
		z = 0x9E3779B97F4A7C15
	}
	return z
}
