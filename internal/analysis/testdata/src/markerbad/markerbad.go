// Package markerbad is a lint fixture for the marker rule: a comment
// that begins like a marker must name one some rule reads. Prose that
// mentions //ssvc:hotpath mid-sentence is not a marker.
package markerbad

// Typo was meant to be a //ssvc:hotpath function; the misspelt marker
// would silently take it out of the hotpath rule.
//
//ssvc:hotpth // want:marker
func Typo() {}

// Leftover carries a marker no rule reads any more.
type Leftover struct {
	N int //ssvc:bound N 1..4096 // want:marker
}

// Hot carries every marker a rule reads, so none is a finding.
//
//ssvc:hotpath
func Hot(xs []int) int {
	n := 0
	for _, x := range xs {
		//ssvc:coldpath
		n += x
	}
	return n
}

// Serial is serial-only.
//
//ssvc:serial-only
func Serial() {}

// Clamp is a barrier.
//
//ssvc:barrier
func Clamp(x float64) uint64 {
	//ssvc:allow determinism judged only when determinism runs
	return uint64(x)
}

// Bare has a marker prefix with no name.
func Bare() {
	//ssvc: // want:marker
}
