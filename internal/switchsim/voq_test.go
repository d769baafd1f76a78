package switchsim

import (
	"bytes"
	"testing"

	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
	"swizzleqos/internal/wire"
)

// builtVOQs returns the (input, output) pairs whose GB virtual output
// queue has been built.
func builtVOQs(sw *Switch) map[[2]int]bool {
	built := map[[2]int]bool{}
	for _, in := range sw.inputs {
		for o, q := range in.gb {
			if q != nil {
				built[[2]int{in.id, o}] = true
			}
		}
	}
	return built
}

// TestVOQsFollowTraffic runs the saturated radix-64 shape of the
// benchmark's crossbar: 56 inputs with 8 backlogged 4-flit GB flows each,
// all converging on 8 hot outputs. Only the 448 (input, output) pairs
// that carry a flow hold a virtual output queue, and no queue's storage
// outgrows the 4 packets a source queue holds or the 16-flit VOQ's 4,
// plus one NACK, rounded up to a power of two.
func TestVOQsFollowTraffic(t *testing.T) {
	const radix, inputs, hot = 64, 56, 8
	sw := mustNew(t, Config{Radix: radix, BEBufferFlits: 16, GLBufferFlits: 16, GBBufferFlits: 16}, lrgFactory(radix))
	seq := new(traffic.Sequence)
	sw.OnRelease(seq.Recycle)
	want := map[[2]int]bool{}
	for i := 0; i < inputs; i++ {
		for k := 0; k < hot; k++ {
			spec := noc.FlowSpec{Src: i, Dst: k * radix / hot, Class: noc.GuaranteedBandwidth, Rate: 0.01, PacketLength: 4}
			addFlow(t, sw, traffic.Flow{Spec: spec, Gen: traffic.NewBacklogged(seq, spec, 4)})
			want[[2]int{spec.Src, spec.Dst}] = true
		}
	}
	sw.Run(50000)
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	if sw.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	built := builtVOQs(sw)
	if len(built) != len(want) {
		t.Fatalf("%d VOQs built, want the %d pairs that carry a flow", len(built), len(want))
	}
	for pair := range want {
		if !built[pair] {
			t.Fatalf("no VOQ built for the flow %d->%d", pair[0], pair[1])
		}
	}
	for i := 0; i < sw.Flows(); i++ {
		if n := sw.sources.Flow(i).Slots(); n > 8 {
			t.Fatalf("flow %d's source queue grew to %d slots", i, n)
		}
	}
	for _, in := range sw.inputs {
		for o, q := range in.gb {
			if q != nil && q.Slots() > 8 {
				t.Fatalf("VOQ %d->%d grew to %d slots", in.id, o, q.Slots())
			}
		}
	}
}

// TestUnbuiltVOQsRoundTrip snapshots switches with unbuilt VOQs — fresh,
// and mid-run with two of every input's 8 queues in use — and restores
// each into a fresh switch: the restore builds a VOQ only where one holds
// a packet and encodes back to the same bytes.
func TestUnbuiltVOQsRoundTrip(t *testing.T) {
	for _, cycles := range []noc.Cycle{0, 3000} {
		a := newStateSwitch(t, Config{})
		a.attach(t)
		a.sw.Run(cycles)
		blob := a.appendAll(t)
		if n := len(builtVOQs(a.sw)); n >= 64 {
			t.Fatalf("after %d cycles all %d VOQs are built", cycles, n)
		}

		b := newStateSwitch(t, Config{})
		r := wire.NewReader(blob)
		if err := b.restoreAll(r); err != nil || r.Len() != 0 {
			t.Fatalf("after %d cycles: restore: %v, %d bytes left", cycles, err, r.Len())
		}
		held := map[[2]int]bool{}
		for pair := range builtVOQs(a.sw) {
			if a.sw.inputs[pair[0]].gb[pair[1]].Len() > 0 {
				held[pair] = true
			}
		}
		if built := builtVOQs(b.sw); len(built) != len(held) {
			t.Fatalf("after %d cycles: restore built %d VOQs, %d hold packets", cycles, len(built), len(held))
		}
		for pair := range held {
			if b.sw.inputs[pair[0]].gb[pair[1]] == nil {
				t.Fatalf("after %d cycles: restore left VOQ %d->%d unbuilt, and it holds packets", cycles, pair[0], pair[1])
			}
		}
		if again := b.appendAll(t); !bytes.Equal(again, blob) {
			t.Fatalf("after %d cycles: the restored switch encodes to other bytes", cycles)
		}
	}
}

// TestBufferOccupancyBuildsNothing asks a fresh switch about every GB
// queue: each holds nothing, and asking builds none.
func TestBufferOccupancyBuildsNothing(t *testing.T) {
	sw := mustNew(t, testConfig(), lrgFactory(8))
	for i := 0; i < 8; i++ {
		for o := 0; o < 8; o++ {
			if n := sw.BufferOccupancy(i, noc.GuaranteedBandwidth, o); n != 0 {
				t.Fatalf("fresh VOQ %d->%d holds %d flits", i, o, n)
			}
		}
	}
	if n := len(builtVOQs(sw)); n != 0 {
		t.Fatalf("BufferOccupancy built %d VOQs", n)
	}
}
