// Package determclean is a lint fixture the determinism analyzer must
// pass without findings: seeded randomness and order-imposed lookups
// only.
package determclean

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// Roll uses a generator that is a pure function of its seed.
func Roll(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Pick reads map values through an explicitly sorted key slice; the map
// itself is never ranged.
func Pick(m map[string]int, keys []string) []int {
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// Root uses only exactly rounded math, the same on every architecture.
func Root(x float64) float64 { return math.Floor(math.Sqrt(x)) }

// Hold references the time package without consulting the wall clock.
func Hold() time.Duration { return 5 * time.Millisecond }
