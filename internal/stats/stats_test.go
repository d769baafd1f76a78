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

func TestWorstAdherence(t *testing.T) {
	c := NewCollector(0, 100)
	c.OnDeliver(delivered(0, 0, noc.GuaranteedBandwidth, 20, 0, 0, 1, 30)) // 0.2 of 0.2 reserved
	c.OnDeliver(delivered(1, 0, noc.GuaranteedBandwidth, 5, 0, 0, 1, 40))  // 0.05 of 0.1 reserved
	c.OnDeliver(delivered(2, 0, noc.GuaranteedBandwidth, 5, 0, 0, 1, 50))  // 0.05 of 0.1 reserved
	flows := []noc.FlowSpec{
		{Src: 3, Dst: 0, Class: noc.BestEffort}, // reserves nothing: skipped
		{Src: 0, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.2},
		{Src: 1, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.1},
		{Src: 2, Dst: 0, Class: noc.GuaranteedBandwidth, Rate: 0.1},
	}
	if ratio, at := c.WorstAdherence(flows); ratio != 0.5 || at != 2 {
		t.Errorf("WorstAdherence = (%g, %d), want (0.5, 2): the first flow at the minimum", ratio, at)
	}
	if ratio, at := c.WorstAdherence(flows[:1]); ratio != 0 || at != -1 {
		t.Errorf("WorstAdherence with no reservation = (%g, %d), want (0, -1)", ratio, at)
	}
}

func TestWorstWait(t *testing.T) {
	c := NewCollector(10, 100)
	c.OnDeliver(delivered(0, 0, noc.GuaranteedLatency, 4, 0, 0, 9, 9))     // before the window
	c.OnDeliver(delivered(0, 0, noc.GuaranteedLatency, 4, 20, 20, 26, 30)) // wait 6
	c.OnDeliver(delivered(1, 0, noc.GuaranteedLatency, 4, 20, 21, 25, 29)) // wait 4
	c.OnDeliver(delivered(2, 0, noc.GuaranteedBandwidth, 4, 20, 20, 60, 64))
	c.OnDeliver(delivered(3, 1, noc.GuaranteedLatency, 4, 20, 20, 70, 74))
	if wait, n := c.WorstWait(0, noc.GuaranteedLatency); wait != 6 || n != 2 {
		t.Errorf("WorstWait = (%d, %d), want (6, 2)", wait, n)
	}
	if wait, n := c.WorstWait(2, noc.GuaranteedLatency); wait != 0 || n != 0 {
		t.Errorf("WorstWait on an idle output = (%d, %d), want (0, 0)", wait, n)
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
