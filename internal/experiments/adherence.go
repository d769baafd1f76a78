package experiments

import (
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// AdherenceCombo is one randomly drawn reservation mix and its outcome.
type AdherenceCombo struct {
	Rates         []float64
	PacketLens    []int
	Accepted      []float64
	GB            stats.Verdict // At is the worst flow
	TotalAccepted float64
	// Err is the engine's terminal error if the run froze early.
	Err error
}

// AdherenceResult aggregates the §4.2 verification: "We simulated 20
// combinations of reserved rates and a variety of packet sizes and
// verified that in each case SSVC is able to give flows their requested
// rates" (within 2%, per §4.3).
type AdherenceResult struct {
	Combos     []AdherenceCombo
	WorstRatio float64
	Failures   int // flows below GBTolerance of their reservation
}

// RateAdherence draws `combos` random reservation mixes (rates summing to at
// most 75% of the channel, packet lengths in {4, 8, 16}) with every input
// saturated, and measures each flow's accepted throughput against its
// reservation under SSVC. The mixes are drawn serially from one RNG
// stream — so the parameter sequence is identical at any worker count —
// and the independent simulations then fan across o.Workers goroutines.
func RateAdherence(combos int, o Options) AdherenceResult {
	o = o.withDefaults()
	rng := traffic.NewRNG(o.Seed * 0x9E37)
	mixes := make([]adherenceMix, combos)
	for c := range mixes {
		mixes[c] = drawAdherenceMix(rng)
	}
	res := AdherenceResult{WorstRatio: 1e9}
	res.Combos = runner.MapScratch(o.pool(), combos, newSweepScratch,
		func(sc *sweepScratch, i int) AdherenceCombo {
			return adherenceCombo(sc, mixes[i], o)
		})
	for _, combo := range res.Combos {
		res.WorstRatio = min(res.WorstRatio, combo.GB.Worst)
		res.Failures += combo.GB.Failing
	}
	return res
}

// adherenceMix is one pre-drawn reservation mix: the random inputs to one
// simulation, fixed before any parallel execution starts.
type adherenceMix struct {
	rates []float64
	lens  []int
}

func drawAdherenceMix(rng *traffic.RNG) adherenceMix {
	lens := []int{4, 8, 16}
	mix := adherenceMix{
		rates: make([]float64, fig4Radix),
		lens:  make([]int, fig4Radix),
	}
	// Random positive weights, normalised to a random total load in
	// [0.5, 0.75] so the reservations always fit within the channel's
	// effective capacity (>= 4/5 for the shortest packets).
	var sum float64
	weights := make([]float64, fig4Radix)
	for i := range weights {
		weights[i] = 0.05 + rng.Float64()
		sum += weights[i]
	}
	load := 0.5 + 0.25*rng.Float64()
	for i := range mix.rates {
		mix.rates[i] = weights[i] / sum * load
		mix.lens[i] = lens[rng.Intn(len(lens))]
	}
	return mix
}

func adherenceCombo(sc *sweepScratch, mix adherenceMix, o Options) AdherenceCombo {
	combo := AdherenceCombo{
		Rates:      append([]float64(nil), mix.rates...),
		PacketLens: append([]int(nil), mix.lens...),
		Accepted:   make([]float64, fig4Radix),
	}
	specs := make([]noc.FlowSpec, fig4Radix)
	for i := range specs {
		specs[i] = noc.FlowSpec{
			Src: i, Dst: 0,
			Class:        noc.GuaranteedBandwidth,
			Rate:         combo.Rates[i],
			PacketLength: combo.PacketLens[i],
		}
	}
	col, _, err := sc.row(fig4Config(), family(core.ArbSSVC, fig4SSVC, specs), backlogged(specs...), o)
	combo.Err = err
	if col == nil {
		combo.GB = stats.GBNotRun(specs)
		return combo
	}
	for i, s := range specs {
		combo.Accepted[i] = col.Throughput(stats.SpecKey(s))
		combo.TotalAccepted += combo.Accepted[i]
	}
	combo.GB = col.GB(specs)
	return combo
}

// Table renders one row per combination.
func (r AdherenceResult) Table() *stats.Table {
	t := stats.NewTable(
		"§4.2: reserved-rate adherence across random reservation mixes (SSVC, saturated inputs)",
		"combo", "total reserved", "total accepted", "worst accepted/reserved", "worst flow")
	for i, c := range r.Combos {
		var reserved float64
		for _, rr := range c.Rates {
			reserved += rr
		}
		t.AddRow(i+1, fmt.Sprintf("%.3f", reserved), fmt.Sprintf("%.3f", c.TotalAccepted),
			fmt.Sprintf("%.3f", c.GB.Worst), c.GB.At)
	}
	return t
}
