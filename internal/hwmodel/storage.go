// Package hwmodel provides the hardware cost models behind the paper's
// Table 1 (SSVC storage), §4.5 (crosspoint area overhead), and Table 2
// (frequency with and without SSVC).
//
// The storage model is exact arithmetic and reproduces Table 1 to
// rounding. The area and delay models are a documented substitution for
// the paper's 32nm silicon measurements and SPICE wire delays: analytic
// fits calibrated to the published anchors (a radix-64 Swizzle Switch
// running at about 1.5 GHz, a worst-case SSVC slowdown of 8.4% at the
// 8x8/256-bit configuration, and a 2% crosspoint area increase at 128
// bits). They preserve the shape of the paper's results — which
// configurations pay the most — rather than absolute silicon numbers.
package hwmodel

import "fmt"

// StorageConfig parameterises the Table 1 storage computation.
type StorageConfig struct {
	Radix       int
	ChannelBits int // output bus width; one flit is ChannelBits wide

	// Input buffering, in flits (Table 1 uses 4 everywhere, with the GB
	// class buffered per output).
	BEBufferFlits       int
	GLBufferFlits       int
	GBBufferFlitsPerOut int

	// Per-crosspoint QoS state widths in bits. Table 1 uses an 11-bit
	// auxVC (3 significant + 8), an 8-bit thermometer code register and
	// an 8-bit Vtick.
	AuxVCBits int
	ThermBits int
	VtickBits int
}

// Table1Config returns the exact configuration of the paper's Table 1:
// a 64x64 switch with 512-bit output buses and 64-byte flits.
func Table1Config() StorageConfig {
	return StorageConfig{
		Radix:               64,
		ChannelBits:         512,
		BEBufferFlits:       4,
		GLBufferFlits:       4,
		GBBufferFlitsPerOut: 4,
		AuxVCBits:           3 + 8,
		ThermBits:           8,
		VtickBits:           8,
	}
}

// FlitBytes returns the flit size in bytes.
func (c StorageConfig) FlitBytes() int { return c.ChannelBits / 8 }

// BEBufferBytes returns one input's best-effort buffering in bytes.
func (c StorageConfig) BEBufferBytes() int { return c.BEBufferFlits * c.FlitBytes() }

// GLBufferBytes returns one input's guaranteed-latency buffering in bytes.
func (c StorageConfig) GLBufferBytes() int { return c.GLBufferFlits * c.FlitBytes() }

// GBBufferBytes returns one input's guaranteed-bandwidth buffering in
// bytes: a virtual output queue per output.
func (c StorageConfig) GBBufferBytes() int {
	return c.GBBufferFlitsPerOut * c.Radix * c.FlitBytes()
}

// InputBufferBytes returns one input port's total buffering in bytes.
func (c StorageConfig) InputBufferBytes() int {
	return c.BEBufferBytes() + c.GLBufferBytes() + c.GBBufferBytes()
}

// TotalBufferBytes returns the buffering across all inputs in bytes.
func (c StorageConfig) TotalBufferBytes() int { return c.Radix * c.InputBufferBytes() }

// LRGBits returns the per-crosspoint LRG priority state: one bit per
// other input (63 bits for a radix-64 switch).
func (c StorageConfig) LRGBits() int { return c.Radix - 1 }

// CrosspointBits returns the QoS state bits per crosspoint.
func (c StorageConfig) CrosspointBits() int {
	return c.AuxVCBits + c.ThermBits + c.VtickBits + c.LRGBits()
}

// CrosspointBytes returns the QoS state per crosspoint in (fractional)
// bytes, as Table 1 reports it.
func (c StorageConfig) CrosspointBytes() float64 { return float64(c.CrosspointBits()) / 8 }

// TotalCrosspointBytes returns the crosspoint state across all
// radix-squared crosspoints, in bytes.
func (c StorageConfig) TotalCrosspointBytes() float64 {
	// Converted so the product cannot fuse into TotalBytes' sum (FMA).
	return float64(float64(c.Radix*c.Radix) * c.CrosspointBytes())
}

// TotalBytes returns the switch's total SSVC storage: input buffering
// plus crosspoint state (the paper's ~1,101 KB bottom line).
func (c StorageConfig) TotalBytes() float64 {
	return float64(c.TotalBufferBytes()) + c.TotalCrosspointBytes()
}

// Validate reports a descriptive error for malformed configurations.
func (c StorageConfig) Validate() error {
	if c.Radix < 2 {
		return fmt.Errorf("hwmodel: radix %d must be at least 2", c.Radix)
	}
	if c.ChannelBits <= 0 || c.ChannelBits%8 != 0 {
		return fmt.Errorf("hwmodel: channel width %d must be a positive multiple of 8", c.ChannelBits)
	}
	if c.BEBufferFlits < 0 || c.GLBufferFlits < 0 || c.GBBufferFlitsPerOut < 0 {
		return fmt.Errorf("hwmodel: negative buffer depth")
	}
	if c.AuxVCBits < 1 || c.ThermBits < 1 || c.VtickBits < 1 {
		return fmt.Errorf("hwmodel: crosspoint field widths must be positive")
	}
	return nil
}
