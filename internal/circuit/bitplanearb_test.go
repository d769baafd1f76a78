package circuit

import (
	"fmt"

	"swizzleqos/internal/arb"
	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
)

// BitplaneArbiter resolves a crosspoint image word-parallel: it packs
// the request/class/thermometer state into uint64 level planes and picks
// the winner with plane intersections and the LRG priority matrix — the
// software transcription of the wire model's parallel bitline
// discharges, and the third leg of the §4.1 equivalence triangle
// (circuit wires vs element-wise reference vs bitplanes). One uint64
// word covers radix ≤ 64; the plane slices generalise to any radix. Only
// the tests use it: the engines arbitrate through core.SSVC, which
// TestFabricMatchesSSVCInLiveSimulation holds to the same wire model.
type BitplaneArbiter struct {
	radix  int
	levels int
	glM    []uint64
	beM    []uint64
	lvl    [][]uint64
}

// NewBitplaneArbiter returns a word-parallel resolver for the given
// radix and number of GB thermometer levels.
func NewBitplaneArbiter(radix, levels int) (*BitplaneArbiter, error) {
	if radix < 2 {
		return nil, fmt.Errorf("circuit: bitplane radix %d must be at least 2", radix)
	}
	if levels < 1 {
		return nil, fmt.Errorf("circuit: bitplane needs at least one GB level, got %d", levels)
	}
	words := arb.MaskWords(radix)
	b := &BitplaneArbiter{
		radix:  radix,
		levels: levels,
		glM:    make([]uint64, words),
		beM:    make([]uint64, words),
		lvl:    make([][]uint64, levels),
	}
	for k := range b.lvl {
		b.lvl[k] = make([]uint64, words)
	}
	return b, nil
}

// Winner returns the arbitration winner for the crosspoint image, or -1
// when nothing requests. It must decide identically to ReferenceWinner
// (and hence to Fabric.Arbitrate) for every input: strict class priority,
// minimum thermometer value among GB requesters, LRG ties.
func (b *BitplaneArbiter) Winner(points []Crosspoint, lrg *arb.LRGState) int {
	arb.MaskZero(b.glM)
	arb.MaskZero(b.beM)
	for k := range b.lvl {
		arb.MaskZero(b.lvl[k])
	}
	anyGL, anyGB, anyBE := false, false, false
	for i := range points {
		p := &points[i]
		if !p.Request {
			continue
		}
		switch p.Class {
		case noc.GuaranteedLatency:
			arb.MaskSet(b.glM, i)
			anyGL = true
		case noc.GuaranteedBandwidth:
			v, err := core.ThermValue(p.Therm)
			if err != nil {
				panic(err)
			}
			arb.MaskSet(b.lvl[v], i)
			anyGB = true
		default:
			arb.MaskSet(b.beM, i)
			anyBE = true
		}
	}
	if anyGL {
		return lrg.MinRankIn(b.glM)
	}
	if anyGB {
		for k := 0; k < b.levels; k++ {
			if arb.MaskAny(b.lvl[k]) {
				return lrg.MinRankIn(b.lvl[k])
			}
		}
	}
	if anyBE {
		return lrg.MinRankIn(b.beM)
	}
	return -1
}
