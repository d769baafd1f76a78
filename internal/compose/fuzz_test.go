package compose

import (
	"testing"

	"swizzleqos/internal/faults"
	"swizzleqos/internal/noc"
	"swizzleqos/internal/traffic"
)

// routedFuzzCase is what FuzzRoutedOffers reads out of its bytes: one of
// the four oracle wirings, the load, a fault schedule
// over any port of the network (CRC retries with a short backoff, a
// stall window, an input and an output fail-stop) and a flow attached
// mid-run.
type routedFuzzCase struct {
	in     [16]byte
	bc     bucketCase
	faulty bool
	late   noc.FlowSpec
	lateAt noc.Cycle
}

func decodeRoutedFuzz(b []byte) routedFuzzCase {
	var in [16]byte
	copy(in[:], b)
	return routedFuzzCase{
		in: in,
		bc: bucketCase{
			wiring:    []string{"mesh4x4", "mesh3x5", "clos", "star70"}[in[0]&3],
			saturated: in[0]&4 != 0,
			faults:    "none", // the schedule comes from the bytes, not from buildBucketNet
		},
		faulty: in[0]&32 != 0,
		late:   noc.FlowSpec{Src: int(in[12]), Dst: int(in[13]), Class: noc.BestEffort, PacketLength: []int{1, 4, 16, 17, 0}[in[14]%5]},
		lateAt: noc.Cycle(in[15]),
	}
}

// schedule decodes the fault bytes against n's port space; every port id
// is folded into range, so each decoded schedule is one SetFaults takes.
func (fc routedFuzzCase) schedule(n *Network) faults.Config {
	in := fc.in
	cfg := faults.Config{Seed: uint64(in[1]), BackoffBase: noc.Cycle(1 + in[2]&7)}
	if in[3]&1 != 0 {
		cfg.CorruptProb = float64(in[3]>>1) / 512
	}
	if in[4]&1 != 0 {
		from := noc.Cycle(in[5])
		cfg.Stalls = []faults.StallWindow{{Port: int(in[6]) % n.totalPorts, From: from, Until: from + noc.Cycle(in[4]>>1)}}
	}
	if in[7]&1 != 0 {
		cfg.FailStops = append(cfg.FailStops, faults.FailStop{Input: true, Port: int(in[8]) % n.Terminals(), At: noc.Cycle(in[7])})
	}
	if in[9]&1 != 0 {
		cfg.FailStops = append(cfg.FailStops, faults.FailStop{Port: (int(in[10])<<8 | int(in[11])) % n.totalPorts, At: noc.Cycle(in[9])})
	}
	return cfg
}

// FuzzRoutedOffers steps the engine and the scan oracle of
// TestBucketsMatchScan in lock step on whatever the bytes describe and
// requires the same counters and the same delivery trace after every
// cycle, the same fault totals at the end, and never a panic. The
// oracle moves every transmission a flit a cycle, the per-flit walk the
// engine's completion calendar and its stall postponement replace. The
// offers are held to the head scan of TestOffersMatchScan on the way.
// An output fail-stop here lands on any port, link-fed ones included,
// where the packets discarded at the dead route free buffer space that
// an upstream node's arbitration sees: the discard has to keep its place
// in the walk.
func FuzzRoutedOffers(f *testing.F) {
	// wiring|load|faulty (bits 3-4 unused), seed, backoff, crc, stall(len,from,port),
	// input fail-stop(at,port), output fail-stop(at,port hi,port lo),
	// late flow(src,dst,length,at).
	f.Add([]byte{0 | 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 60})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 1, 10})
	f.Add([]byte{2 | 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 200, 1, 3, 90})
	f.Add([]byte{0 | 4 | 32, 7, 3, 41, 81, 20, 28, 101, 2, 121, 0, 28, 1, 0, 0, 60})  // mesh4x4: node 5's east link dies
	f.Add([]byte{1 | 4 | 32, 9, 0, 21, 0, 0, 0, 0, 0, 61, 0, 37, 4, 9, 1, 200})       // mesh3x5: node 7's south link dies
	f.Add([]byte{2 | 4 | 32, 1, 1, 201, 61, 100, 24, 51, 6, 91, 0, 25, 2, 13, 2, 30}) // clos: a spine downlink dies
	f.Add([]byte{3 | 4 | 32, 3, 7, 11, 255, 0, 5, 0, 0, 41, 0, 9, 0, 69, 0, 0})       // star70: a hub output dies
	f.Add([]byte{3 | 32, 5, 2, 101, 31, 40, 75, 201, 33, 0, 0, 0, 69, 0, 1, 120})
	f.Add([]byte{0 | 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 60}) // a late flow of 0-flit packets
	f.Fuzz(func(t *testing.T, b []byte) {
		fc := decodeRoutedFuzz(b)
		got := buildBucketNet(t, fc.bc)
		want := buildBucketNet(t, fc.bc)
		if fc.faulty {
			cfg := fc.schedule(got.net)
			if err := got.net.SetFaults(cfg); err != nil {
				t.Fatalf("decoded an invalid schedule %+v: %v", cfg, err)
			}
			if err := want.net.SetFaults(cfg); err != nil {
				t.Fatal(err)
			}
		}
		oracle := newScanOracle(want.net)
		n := got.net
		n.afterRefresh = func(now noc.Cycle) { scanOffers(t, n, now) }
		for n.now < 320 {
			if n.now == fc.lateAt {
				// Out-of-range terminals, a flow to itself, 17-flit
				// packets into 16-flit buffers and packets of no flits
				// must be refused by both.
				errGot := n.AddFlow(traffic.Flow{Spec: fc.late, Gen: traffic.NewBacklogged(got.seq, fc.late, 2)})
				errWant := want.net.AddFlow(traffic.Flow{Spec: fc.late, Gen: traffic.NewBacklogged(want.seq, fc.late, 2)})
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("late AddFlow: engine says %v, oracle says %v", errGot, errWant)
				}
			}
			n.Step()
			oracle.step()
			if n.Totals() != want.net.Totals() {
				t.Fatalf("cycle %d: counters diverge:\n got %+v\nwant %+v", n.now-1, n.Totals(), want.net.Totals())
			}
			if got.order != want.order || got.delivered != want.delivered {
				t.Fatalf("cycle %d: delivery trace diverges: %d packets hash %#x, oracle %d packets hash %#x",
					n.now-1, got.delivered, got.order, want.delivered, want.order)
			}
		}
		if err := n.Err(); err != nil {
			t.Fatalf("engine froze: %v", err)
		}
		if err := want.net.Err(); err != nil {
			t.Fatalf("oracle froze: %v", err)
		}
		if n.FaultTotals() != want.net.FaultTotals() {
			t.Fatalf("fault counters diverge:\n got %+v\nwant %+v", n.FaultTotals(), want.net.FaultTotals())
		}
	})
}
