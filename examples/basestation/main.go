// Basestation: the paper's motivating SoC — a base-station-like system
// where accelerators with hard bandwidth requirements, best-effort cores,
// and a DSP share one memory controller port through the switch.
//
// The example runs the same workload twice — once on a plain LRG switch
// (no QoS) and once with SSVC — and shows that without QoS the radio
// accelerator misses its 40% bandwidth requirement as soon as the
// best-effort cores get busy, while SSVC holds every reservation.
package main

import (
	"fmt"
	"log"

	"swizzleqos"
)

const memPort = 7 // the memory controller's switch port

func workloads() []swizzleqos.Workload {
	var ws []swizzleqos.Workload
	// Radio DSP: hard 40% bandwidth requirement, streaming writes.
	ws = append(ws, swizzleqos.Workload{
		Spec: swizzleqos.FlowSpec{
			Src: 0, Dst: memPort,
			Class:        swizzleqos.GuaranteedBandwidth,
			Rate:         0.40,
			PacketLength: 8,
		},
		Inject: swizzleqos.Inject.Backlogged(4),
	})
	// Video codec: 20%, bursty frame traffic.
	ws = append(ws, swizzleqos.Workload{
		Spec: swizzleqos.FlowSpec{
			Src: 1, Dst: memPort,
			Class:        swizzleqos.GuaranteedBandwidth,
			Rate:         0.20,
			PacketLength: 8,
		},
		Inject: swizzleqos.Inject.Bursty(0.20, 6, 11),
	})
	// Four application cores: best effort, greedy.
	for core := 2; core < 6; core++ {
		ws = append(ws, swizzleqos.Workload{
			Spec: swizzleqos.FlowSpec{
				Src: core, Dst: memPort,
				Class:        swizzleqos.BestEffort,
				PacketLength: 8,
			},
			Inject: swizzleqos.Inject.Backlogged(4),
		})
	}
	// Watchdog: rare time-critical pings in the GL class.
	ws = append(ws, swizzleqos.Workload{
		Spec: swizzleqos.FlowSpec{
			Src: 6, Dst: memPort,
			Class:        swizzleqos.GuaranteedLatency,
			Rate:         0.05,
			PacketLength: 2,
		},
		Inject: swizzleqos.Inject.Periodic(10_000, 5_000),
	})
	return ws
}

func run(arbitration swizzleqos.Arbitration) *swizzleqos.Report {
	cfg := swizzleqos.DefaultConfig(8)
	cfg.Arbitration = arbitration
	net, err := swizzleqos.New(cfg, workloads()...)
	if err != nil {
		log.Fatal(err)
	}
	net.Run(10_000)
	net.StartMeasurement()
	net.Run(200_000)
	return net.Report()
}

func main() {
	for _, arbitration := range []swizzleqos.Arbitration{swizzleqos.LRG, swizzleqos.SSVC} {
		rep := run(arbitration)
		fmt.Printf("=== %v arbitration ===\n", arbitration)
		fmt.Print(rep.Table())

		radio := rep.Throughput(swizzleqos.FlowKey{Src: 0, Dst: memPort, Class: swizzleqos.GuaranteedBandwidth})
		verdict := "MISSED"
		if radio >= 0.40*swizzleqos.GBTolerance {
			verdict = "met"
		}
		fmt.Printf("radio DSP requirement (0.40 flits/cycle): %.3f -> %s\n\n", radio, verdict)
	}
	fmt.Println("Note: under SSVC the best-effort cores vanish from the table — BE has")
	fmt.Println("strict lowest priority, so backlogged GB flows absorb the whole channel.")
	fmt.Println("The codec's huge LRG-run latency is source queueing: without QoS it")
	fmt.Println("only receives an equal share (0.148) of the channel, below its 0.20 offer.")
}
