package swizzleqos_test

import (
	"strings"
	"testing"

	"swizzleqos"
)

func planRequirements() swizzleqos.PlanRequirements {
	return swizzleqos.PlanRequirements{
		Radix:        8,
		BusWidthBits: 128,
		GB: []swizzleqos.FlowSpec{
			{Src: 0, Dst: 0, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.40, PacketLength: 8},
			{Src: 1, Dst: 0, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.20, PacketLength: 8},
		},
		GL: []swizzleqos.GLContract{
			{Src: 7, Dst: 0, PacketLength: 2, LatencyBound: 100, BurstPackets: 2},
		},
	}
}

func TestPlanAndRun(t *testing.T) {
	plan, err := swizzleqos.Plan(planRequirements())
	if err != nil {
		t.Fatal(err)
	}
	out := swizzleqos.PlanTable(plan)
	if !strings.Contains(out, "GB reserved") || !strings.Contains(out, "0.600") {
		t.Fatalf("plan table missing content:\n%s", out)
	}

	var ws []swizzleqos.Workload
	for _, s := range planRequirements().GB {
		ws = append(ws, swizzleqos.Workload{Spec: s, Inject: swizzleqos.Inject.Backlogged(4)})
	}
	net, err := swizzleqos.NewPlanned(plan, ws...)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(3000)
	net.StartMeasurement()
	net.Run(40000)
	rep := net.Report()
	for _, s := range planRequirements().GB {
		got := rep.Throughput(swizzleqos.FlowKey{Src: s.Src, Dst: s.Dst, Class: s.Class})
		if got < s.Rate*swizzleqos.GBTolerance {
			t.Errorf("planned flow %d->%d accepted %.3f, reserved %.2f", s.Src, s.Dst, got, s.Rate)
		}
	}
}

func TestPlanRejectsInfeasible(t *testing.T) {
	req := planRequirements()
	req.GB = append(req.GB, swizzleqos.FlowSpec{
		Src: 2, Dst: 0, Class: swizzleqos.GuaranteedBandwidth, Rate: 0.50, PacketLength: 8,
	})
	if _, err := swizzleqos.Plan(req); err == nil {
		t.Fatal("oversubscribed plan accepted")
	}
}

func TestNewPlannedValidation(t *testing.T) {
	if _, err := swizzleqos.NewPlanned(nil); err == nil {
		t.Error("nil plan accepted")
	}
	plan, err := swizzleqos.Plan(planRequirements())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := swizzleqos.NewPlanned(plan); err == nil {
		t.Error("planned network without workloads accepted")
	}
	bad := swizzleqos.Workload{
		Spec:   swizzleqos.FlowSpec{Src: 99, Dst: 0, Class: swizzleqos.BestEffort, PacketLength: 4},
		Inject: swizzleqos.Inject.Backlogged(1),
	}
	if _, err := swizzleqos.NewPlanned(plan, bad); err == nil {
		t.Error("out-of-range workload accepted")
	}
}
