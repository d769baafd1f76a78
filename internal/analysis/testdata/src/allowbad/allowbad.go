// Package allowbad is a lint fixture for //ssvc:allow markers, run
// under the determinism rule: one marker excuses the finding below it,
// and each marker that fails is itself a finding of rule allow. A name
// after ^ in a want-marker is a finding on the line above, for a
// marker line that can carry no comment of its own.
package allowbad

import "slices"

// Keys is excused: the marker stands alone above the flagged range.
func Keys(m map[int]bool) []int {
	var ks []int
	//ssvc:allow determinism the keys are sorted before they are returned
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Total's marker is stale: a slice ranges in order, so there is nothing
// below it to excuse.
func Total(xs []int) int {
	s := 0
	//ssvc:allow determinism nothing below needs this // want:allow
	for _, x := range xs {
		s += x
	}
	return s
}

// Count's marker trails the flagged line instead of standing above it:
// the finding stays and the marker excuses nothing.
func Count(m map[int]bool) int {
	n := 0
	for range m { //ssvc:allow determinism a trailing marker excuses nothing // want:determinism allow
		n++
	}
	return n
}

// Parse's marker names a rule whose proofs admit no exceptions.
func Parse(xs []int) int {
	//ssvc:allow durability the interprocedural rules take no exceptions // want:allow
	return len(xs)
}

// Any's marker gives no reason, so it excuses nothing.
func Any(m map[int]bool) bool {
	//ssvc:allow determinism
	for k := range m { // want:determinism ^allow
		return m[k]
	}
	return false
}

// Halt's marker names a rule the determinism run does not look for, so
// it is left for that rule to judge.
func Halt() {
	//ssvc:allow panicfreeze judged only when panicfreeze runs
	panic("halt")
}
