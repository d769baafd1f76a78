package hwmodel

import (
	"fmt"
	"math"
)

// Delay model (substitution for the paper's SPICE data).
//
// The Swizzle Switch's arbitration period is dominated by precharging and
// conditionally discharging the output bus bitlines; the wire RC grows
// with both the crossbar's radix (column height: one crosspoint per input)
// and its channel width (row length: one bitline per bus bit):
//
//	tSS(radix, width) = t0 + tPort*radix + tBit*width        [ns]
//
// SSVC extends the critical path with the multiplexer in front of each
// sense amp that selects which lane's wire to observe (Figure 2); its
// delay grows with the number of lanes = width/radix:
//
//	tMux(lanes) = tLane * sqrt(lanes)                        [ns]
//
// The constants are calibrated to the paper's published anchors:
//
//   - a 64x64, 128-bit Swizzle Switch runs at 1.5 GHz [16],
//   - the worst SSVC slowdown is 8.4%, at the 8x8/256-bit configuration
//     (Table 2), which also fixes the sub-linear lane exponent: a linear
//     mux model would put the worst case at 512 bits and a logarithmic
//     one at 128 bits.
const (
	baseDelayNs    = 0.1547    // t0: sense/precharge overhead
	perPortDelayNs = 0.006     // tPort: bitline RC per crosspoint
	perBitDelayNs  = 0.001     // tBit: row RC per bus bit
	perLaneDelayNs = 0.0074363 // tLane: sense-amp mux per sqrt(lane)
)

// TimingConfig selects a switch geometry for the delay model.
type TimingConfig struct {
	Radix       int
	ChannelBits int
}

// Validate reports a descriptive error for malformed configurations.
func (c TimingConfig) Validate() error {
	if c.Radix < 2 {
		return fmt.Errorf("hwmodel: radix %d must be at least 2", c.Radix)
	}
	if c.ChannelBits < c.Radix || c.ChannelBits%c.Radix != 0 {
		return fmt.Errorf("hwmodel: channel width %d must be a positive multiple of radix %d",
			c.ChannelBits, c.Radix)
	}
	return nil
}

// Lanes returns the number of arbitration lanes (ChannelBits / Radix).
func (c TimingConfig) Lanes() int { return c.ChannelBits / c.Radix }

// BaseDelayNs returns the modelled arbitration period of the plain Swizzle
// Switch in nanoseconds.
func (c TimingConfig) BaseDelayNs() float64 {
	// Each product is converted so it cannot fuse into the sum (FMA) on
	// the architectures that have one: Table 2 prints the same bits on
	// every GOARCH.
	return baseDelayNs + float64(perPortDelayNs*float64(c.Radix)) + float64(perBitDelayNs*float64(c.ChannelBits))
}

// SSVCDelayNs returns the modelled period with the SSVC sense-amp
// multiplexer on the critical path.
func (c TimingConfig) SSVCDelayNs() float64 {
	return c.BaseDelayNs() + float64(perLaneDelayNs*math.Sqrt(float64(c.Lanes())))
}

// BaseFrequencyGHz returns the plain switch's clock frequency.
func (c TimingConfig) BaseFrequencyGHz() float64 { return 1 / c.BaseDelayNs() }

// SSVCFrequencyGHz returns the clock frequency with SSVC.
func (c TimingConfig) SSVCFrequencyGHz() float64 { return 1 / c.SSVCDelayNs() }

// SlowdownPercent returns the SSVC frequency penalty in percent.
func (c TimingConfig) SlowdownPercent() float64 {
	return 100 * (1 - c.BaseDelayNs()/c.SSVCDelayNs())
}

// AreaOverheadPercent models §4.5: the Virtual Clock logic (auxVC
// counters, the Vtick adder, and the sense-amp multiplexer) occupies the
// area of about three extra bitline pitches on the arbitration metal
// layer. A 128-bit crosspoint has no slack, so it grows by ~2% (the
// paper's "area of a 131-bit channel"); 256-bit and wider crosspoints
// already have room underneath and pay nothing.
func (c TimingConfig) AreaOverheadPercent() float64 {
	const qosEquivalentBitlines = 3.0
	const fitsFreeAtBits = 128.0
	slack := float64(c.ChannelBits) - fitsFreeAtBits
	extra := qosEquivalentBitlines - slack
	if extra <= 0 {
		return 0
	}
	return 100 * extra / float64(c.ChannelBits)
}

// SupportsThreeClasses reports whether the geometry has enough lanes for
// the BE, GB, and GL classes (at least three lanes, §4.4).
func (c TimingConfig) SupportsThreeClasses() bool { return c.Lanes() >= 3 }
