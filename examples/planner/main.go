// Planner: design-time admission control and switch programming.
//
// An SoC integrator writes down the flows' contracts — bandwidth
// reservations for the streaming engines, latency bounds and burst sizes
// for the interrupt sources — and the planner either rejects the set as
// infeasible (§3.3 budget rule, lane limits, counter widths) or emits the
// per-output SSVC programming: Vticks (with hardware-register
// granularity), the guaranteed-latency reservation, policing burst, and
// buffer sizing. The example then runs the planned switch and verifies
// the contracts hold.
package main

import (
	"fmt"
	"log"

	"swizzleqos"
)

func main() {
	req := swizzleqos.PlanRequirements{
		Radix:        16,
		BusWidthBits: 256,
		GB: []swizzleqos.FlowSpec{
			// A DMA engine with a large reservation and a low-rate
			// telemetry flow whose Vtick (8/0.01 = 800 cycles) will not
			// fit an 8-bit register at cycle granularity: the planner
			// coarsens the tick and reports it.
			{Src: 0, Dst: 15, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.45, PacketLength: 8},
			{Src: 1, Dst: 15, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.20, PacketLength: 8},
			{Src: 2, Dst: 15, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.01, PacketLength: 8},
		},
		GL: []swizzleqos.GLContract{
			{Src: 8, Dst: 15, PacketLength: 2, LatencyBound: 120, BurstPackets: 2},
			{Src: 9, Dst: 15, PacketLength: 2, LatencyBound: 240, BurstPackets: 4},
		},
	}

	plan, err := swizzleqos.Plan(req)
	if err != nil {
		log.Fatal("plan rejected: ", err)
	}
	fmt.Print(swizzleqos.PlanTable(plan))
	for _, w := range plan.Warnings {
		fmt.Println("warning:", w)
	}

	// An infeasible request is rejected up front, not at runtime.
	bad := req
	bad.GB = append(bad.GB, swizzleqos.FlowSpec{
		Src: 3, Dst: 15, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.40, PacketLength: 8,
	})
	if _, err := swizzleqos.Plan(bad); err != nil {
		fmt.Println("\ninfeasible variant correctly rejected:")
		fmt.Println("  ", err)
	}

	// Run the planned switch with saturating demand and check contracts.
	var ws []swizzleqos.Workload
	for _, s := range req.GB {
		ws = append(ws, swizzleqos.Workload{Spec: s, Inject: swizzleqos.Inject.Backlogged(4)})
	}
	for _, g := range req.GL {
		ws = append(ws, swizzleqos.Workload{
			Spec: swizzleqos.FlowSpec{Src: g.Src, Dst: g.Dst,
				Class: swizzleqos.GuaranteedLatency, Rate: 0.05, PacketLength: g.PacketLength},
			Inject: swizzleqos.Inject.Periodic(4000, swizzleqos.CycleOf(uint64(1000*g.Src))),
		})
	}
	net, err := swizzleqos.NewPlanned(plan, ws...)
	if err != nil {
		log.Fatal(err)
	}
	var worstGLWait swizzleqos.Cycle
	net.OnDeliver(func(p *swizzleqos.Packet) {
		if p.Class == swizzleqos.GuaranteedLatency {
			if w := p.WaitingTime(); w > worstGLWait {
				worstGLWait = w
			}
		}
	})
	net.Run(10_000)
	net.StartMeasurement()
	net.Run(100_000)
	rep := net.Report()

	fmt.Println("\ncontract verification (saturated demand):")
	for _, s := range req.GB {
		got := rep.Throughput(swizzleqos.FlowKey{Src: s.Src, Dst: s.Dst, Class: s.Class})
		status := "ok"
		if got < s.Rate*swizzleqos.GBTolerance {
			status = "VIOLATED"
		}
		fmt.Printf("  GB %2d->%2d reserved %.3f accepted %.3f  %s\n", s.Src, s.Dst, s.Rate, got, status)
	}
	tau := plan.Outputs[15].WorstGLWait
	status := "ok"
	if float64(worstGLWait.Uint()) > tau {
		status = "VIOLATED"
	}
	fmt.Printf("  GL worst wait %d cycles vs tau_GL %.0f  %s\n", worstGLWait, tau, status)
}
