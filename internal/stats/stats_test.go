package stats

import (
	"strings"
	"testing"

	"swizzleqos/internal/noc"
)

func delivered(src, dst int, class noc.Class, length int, created, enqueued, granted, deliveredAt noc.Cycle) *noc.Packet {
	return &noc.Packet{
		Src: src, Dst: dst, Class: class, Length: length,
		CreatedAt: created, EnqueuedAt: enqueued, GrantedAt: granted, DeliveredAt: deliveredAt,
	}
}

func TestCollectorWindow(t *testing.T) {
	c := NewCollector(100, 200)
	c.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 8, 90, 90, 95, 99))     // before warmup
	c.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 8, 140, 141, 145, 150)) // inside
	c.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 8, 190, 191, 195, 200)) // at end: excluded
	k := FlowKey{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth}
	f := c.Flow(k)
	if f == nil || f.Packets != 1 {
		t.Fatalf("window filtering failed: %+v", f)
	}
	if got := c.Throughput(k); got != 8.0/100 {
		t.Fatalf("throughput = %g, want 0.08", got)
	}
}

func TestCollectorCloseFixesWindow(t *testing.T) {
	c := NewCollector(0, 0)
	c.OnDeliver(delivered(0, 1, noc.BestEffort, 4, 0, 0, 2, 6))
	c.Close(100)
	if got := c.Window(); got != 100 {
		t.Fatalf("window = %d, want 100", got)
	}
	if got := c.Throughput(FlowKey{Src: 0, Dst: 1, Class: noc.BestEffort}); got != 0.04 {
		t.Fatalf("throughput = %g, want 0.04", got)
	}
}

func TestCollectorLatencyAggregates(t *testing.T) {
	c := NewCollector(0, 1000)
	c.OnDeliver(delivered(2, 3, noc.GuaranteedLatency, 4, 10, 12, 20, 24)) // total 14, net 12, wait 8
	c.OnDeliver(delivered(2, 3, noc.GuaranteedLatency, 4, 30, 30, 31, 35)) // total 5, net 5, wait 1
	f := c.Flow(FlowKey{Src: 2, Dst: 3, Class: noc.GuaranteedLatency})
	if f.MeanLatency() != 9.5 {
		t.Errorf("mean latency = %g, want 9.5", f.MeanLatency())
	}
	if f.LatMin != 5 || f.LatMax != 14 {
		t.Errorf("min/max = %d/%d, want 5/14", f.LatMin, f.LatMax)
	}
	if f.MeanNetworkLatency() != 8.5 {
		t.Errorf("mean network latency = %g, want 8.5", f.MeanNetworkLatency())
	}
	if f.MeanWait() != 4.5 || f.WaitMax != 8 {
		t.Errorf("wait mean/max = %g/%d, want 4.5/8", f.MeanWait(), f.WaitMax)
	}
}

func TestCollectorPercentileBound(t *testing.T) {
	c := NewCollector(0, 1<<40)
	// 90 packets with latency 3, 10 with latency 1000.
	for i := 0; i < 90; i++ {
		c.OnDeliver(delivered(0, 0, noc.BestEffort, 1, 0, 0, 1, 3))
	}
	for i := 0; i < 10; i++ {
		c.OnDeliver(delivered(0, 0, noc.BestEffort, 1, 0, 0, 1, 1000))
	}
	f := c.Flow(FlowKey{Src: 0, Dst: 0, Class: noc.BestEffort})
	p50 := f.LatencyPercentileUpperBound(0.5)
	if p50 > 3 {
		t.Errorf("p50 bound = %d, want <= 3", p50)
	}
	p99 := f.LatencyPercentileUpperBound(0.99)
	if p99 < 1000 {
		t.Errorf("p99 bound = %d, want >= 1000", p99)
	}
}

func TestCollectorKeysSorted(t *testing.T) {
	c := NewCollector(0, 100)
	c.OnDeliver(delivered(3, 1, noc.BestEffort, 1, 0, 0, 1, 2))
	c.OnDeliver(delivered(0, 1, noc.GuaranteedBandwidth, 1, 0, 0, 1, 2))
	c.OnDeliver(delivered(0, 0, noc.BestEffort, 1, 0, 0, 1, 2))
	keys := c.Keys()
	if len(keys) != 3 {
		t.Fatalf("got %d keys", len(keys))
	}
	if keys[0].Dst != 0 || keys[1] != (FlowKey{Src: 0, Dst: 1, Class: noc.GuaranteedBandwidth}) || keys[2].Src != 3 {
		t.Fatalf("keys not in (dst, src, class) order: %v", keys)
	}
}

func TestOutputThroughput(t *testing.T) {
	c := NewCollector(0, 100)
	c.OnDeliver(delivered(0, 5, noc.BestEffort, 8, 0, 0, 1, 9))
	c.OnDeliver(delivered(1, 5, noc.BestEffort, 8, 0, 0, 1, 18))
	c.OnDeliver(delivered(1, 6, noc.BestEffort, 8, 0, 0, 1, 27))
	if got := c.OutputThroughput(5); got != 0.16 {
		t.Fatalf("output 5 throughput = %g, want 0.16", got)
	}
	if got := c.TotalPackets(); got != 3 {
		t.Fatalf("total packets = %d, want 3", got)
	}
}

func TestGBVerdict(t *testing.T) {
	c := NewCollector(0, 100)
	c.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 20, 0, 0, 1, 30)) // 0.2 of 0.2 reserved
	c.OnDeliver(delivered(1, 0, noc.GuaranteedBandwidth, 5, 0, 0, 1, 40))  // 0.05 of 0.1 reserved
	c.OnDeliver(delivered(2, 0, noc.GuaranteedBandwidth, 5, 0, 0, 1, 50))  // 0.05 of 0.1 reserved
	c.OnDeliver(delivered(3, 0, noc.BestEffort, 4, 0, 0, 1, 60))
	flows := []noc.FlowSpec{
		{Src: 3, Dst: 0, Class: noc.BestEffort}, // reserves nothing: not judged
		{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2},
		{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.1},
		{Src: 2, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.1},
	}
	want := Verdict{Worst: 0.5, At: 2, Bound: GBTolerance, Failing: 2, Evidence: 3}
	if v := c.GB(flows); v != want || v.Holds() {
		t.Errorf("GB = %+v (holds %v), want %+v: the first flow at the minimum, two failing", v, v.Holds(), want)
	}
	if v := c.GB(flows[:2]); v.Failing != 0 || !v.Holds() || v.Worst != 1 || v.At != 1 {
		t.Errorf("GB of a flow at its reservation = %+v, want it to hold", v)
	}
	if v := c.GB(flows[:1]); v != (Verdict{At: -1, Bound: GBTolerance}) || v.Holds() {
		t.Errorf("GB with no reservation = %+v, want nothing judged and no verdict of holding", v)
	}
	if v, want := GBNotRun(flows), (Verdict{At: -1, Bound: GBTolerance, Failing: 3}); v != want || v.Holds() {
		t.Errorf("GBNotRun = %+v, want %+v: nothing measured, every reserving flow failing", v, want)
	}
}

// TestGBToleranceForm pins the GB rule to accepted < GBTolerance*reserved.
// At this pair the product equals what was accepted, so the flow holds,
// while the ratio accepted/reserved, which Worst reports, falls one ulp
// below GBTolerance.
func TestGBToleranceForm(t *testing.T) {
	const reserved = 0.06692038748222122
	c := NewCollector(0, 411110081)
	c.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 26961413, 0, 0, 1, 2))
	k := FlowKey{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth}
	if got := c.Throughput(k); got != 0.06558197973257679 {
		t.Fatalf("throughput = %v, want 0.06558197973257679", got)
	}
	v := c.GB([]noc.FlowSpec{{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: reserved}})
	if v.Failing != 0 || !v.Holds() {
		t.Errorf("GB = %+v: a flow accepting exactly GBTolerance of its reservation must hold", v)
	}
	if v.Worst >= GBTolerance {
		t.Errorf("Worst = %v, want the ratio accepted/reserved, just below %v", v.Worst, GBTolerance)
	}
}

func TestGLVerdict(t *testing.T) {
	c := NewCollector(10, 100)
	c.OnDeliver(delivered(0, 0, noc.GuaranteedLatency, 4, 0, 0, 9, 9))     // before the window
	c.OnDeliver(delivered(0, 0, noc.GuaranteedLatency, 4, 20, 20, 26, 30)) // wait 6
	c.OnDeliver(delivered(1, 0, noc.GuaranteedLatency, 4, 20, 21, 25, 29)) // wait 4
	c.OnDeliver(delivered(1, 0, noc.GuaranteedLatency, 4, 30, 30, 33, 37)) // wait 3
	c.OnDeliver(delivered(3, 1, noc.GuaranteedLatency, 4, 20, 20, 70, 74)) // wait 50, not judged
	gl := func(src int) noc.FlowSpec { return noc.FlowSpec{Src: src, Dst: 0, Class: noc.GuaranteedLatency} }
	flows := []noc.FlowSpec{gl(2), gl(1), gl(0)} // input 2 delivers nothing
	if v, want := c.GL(6, flows...), (Verdict{Worst: 6, At: 2, Bound: 6, Evidence: 3}); v != want || !v.Holds() {
		t.Errorf("GL at the bound = %+v, want %+v, holding", v, want)
	}
	if v, want := c.GL(5, flows...), (Verdict{Worst: 6, At: 2, Bound: 5, Failing: 1, Evidence: 3}); v != want || v.Holds() {
		t.Errorf("GL over the bound = %+v, want %+v, not holding", v, want)
	}
	if v := c.GL(6, gl(2)); v != (Verdict{At: -1, Bound: 6}) || v.Holds() {
		t.Errorf("GL of a flow that delivered nothing = %+v, want no evidence and no verdict of holding", v)
	}
}

// TestVerdictHolds: a promise holds only on evidence and with no flow
// failing.
func TestVerdictHolds(t *testing.T) {
	for _, c := range []struct {
		v    Verdict
		want bool
	}{
		{Verdict{Evidence: 3}, true},
		{Verdict{Evidence: 3, Failing: 1}, false},
		{Verdict{}, false},           // no evidence
		{Verdict{Failing: 1}, false}, // failing, and no evidence
	} {
		if got := c.v.Holds(); got != c.want {
			t.Errorf("%+v.Holds() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{Src: 3, Dst: 7, Class: noc.GuaranteedLatency}
	if got := k.String(); got != "3->7/GL" {
		t.Fatalf("String() = %q", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table X: demo", "flow", "rate", "latency")
	tb.AddRow("0->0/GB", 0.4, 12.5)
	tb.AddRow("1->0/GB", 0.05, 190.25)
	out := tb.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "flow") || !strings.Contains(out, "0.4") {
		t.Errorf("missing contents:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("short row lost")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tb := NewTable("title ignored", "a", "b")
	tb.AddRow("x,with comma", 1.5)
	tb.AddRow("y", 2)
	var sb strings.Builder
	if err := tb.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "title ignored") {
		t.Error("CSV must not contain the title")
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("missing header row:\n%s", out)
	}
	if !strings.Contains(out, `"x,with comma",1.5`) {
		t.Errorf("comma cell not quoted:\n%s", out)
	}
}
