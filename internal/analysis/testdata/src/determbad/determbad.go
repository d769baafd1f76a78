// Package determbad is a lint fixture: each construct the determinism
// analyzer must flag carries a trailing want-marker that the golden
// test cross-checks against the analyzer's output.
package determbad

import (
	"math"
	"math/rand"
	"time"
)

// Stamp leaks wall-clock time into a result.
func Stamp() int64 {
	return time.Now().Unix() // want:determinism
}

// Elapsed depends on when the process runs, not on simulated cycles.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want:determinism
}

// Roll draws from the process-global source.
func Roll() int {
	return rand.Intn(6) // want:determinism
}

// Shuffle mutates through the process-global source.
func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want:determinism
}

// Expire schedules a lease expiry against the wall clock instead of a
// simulated cycle; replay could never reproduce when it fired.
func Expire(release func()) {
	time.AfterFunc(time.Second, release) // want:determinism
}

// Pace sleeps inside simulation code, coupling results to host speed.
func Pace() {
	time.Sleep(time.Millisecond) // want:determinism
}

// Deadline builds a wall-clock timeout channel.
func Deadline() <-chan time.Time {
	return time.After(time.Minute) // want:determinism
}

// Cadence polls on a wall-clock ticker.
func Cadence() *time.Ticker {
	return time.NewTicker(time.Second) // want:determinism
}

// Decay's last bit differs between amd64's assembly math.Exp and the
// pure-Go one other architectures run.
func Decay(x float64) float64 {
	return math.Exp(-x) // want:determinism
}

// Sum iterates a map; even a commutative body must be excused
// explicitly, so the analyzer flags the range itself.
func Sum(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want:determinism
		s += v
	}
	return s
}
