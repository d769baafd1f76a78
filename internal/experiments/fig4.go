package experiments

import (
	"fmt"

	"swizzleqos/internal/core"
	"swizzleqos/internal/runner"
	"swizzleqos/internal/stats"
	"swizzleqos/internal/traffic"
)

// Fig4Point is one x-axis sample of Figure 4: every input injects at
// InjectionRate flits/cycle and PerFlow records each flow's accepted
// throughput at the output.
type Fig4Point struct {
	InjectionRate float64
	PerFlow       []float64
	Total         float64
	// Err is the engine's terminal error if this point's simulation
	// froze early (nil on a healthy run).
	Err error
}

// Fig4Result holds one curve family of Figure 4 — either the LRG
// "No QoS" panel (a) or the SSVC "QoS Virtual Clock" panel (b).
type Fig4Result struct {
	QoS    bool
	Rates  []float64 // reserved fractions (QoS panel only)
	Points []Fig4Point
}

// Fig4InjectionRates is the swept x axis in flits/input/cycle.
func Fig4InjectionRates() []float64 {
	rates := make([]float64, 0, 20)
	for r := 0.05; r <= 1.0001; r += 0.05 {
		rates = append(rates, r)
	}
	return rates
}

// Fig4 reproduces Figure 4: eight inputs sending 8-flit GB packets to a
// single output with reserved fractions 40/20/10/10/5/5/5/5%, swept over
// injection rates. Without QoS (LRG) all flows converge to an equal share
// during congestion; with QoS (SSVC) each flow receives at least its
// reserved rate and the maximum accepted throughput is 8/9 ~ 0.89
// flits/cycle. The injection-rate points are independent simulations and
// are fanned across o.Workers goroutines.
func Fig4(qos bool, o Options) Fig4Result {
	o = o.withDefaults()
	res := Fig4Result{QoS: qos, Rates: append([]float64(nil), Fig4Rates...)}
	rates := Fig4InjectionRates()
	res.Points = runner.MapScratch(o.pool(), len(rates), newSweepScratch,
		func(sc *sweepScratch, i int) Fig4Point {
			return fig4Point(sc, qos, rates[i], o)
		})
	return res
}

func fig4Point(sc *sweepScratch, qos bool, inj float64, o Options) Fig4Point {
	specs := intoOutput0(fig4PacketLen, Fig4Rates...)
	fam := core.ArbLRG
	if qos {
		fam = core.ArbSSVC
	}
	ws := make([]traffic.Workload, len(specs))
	for i, s := range specs {
		ws[i] = traffic.Workload{Spec: s, Inject: traffic.Inject.Bernoulli(inj, o.Seed+uint64(i)*7919)}
	}
	col, _, err := sc.row(fig4Config(), family(fam, fig4SSVC, specs), ws, o)
	p := Fig4Point{InjectionRate: inj, PerFlow: make([]float64, fig4Radix), Err: err}
	if col == nil {
		return p
	}
	for i, s := range specs {
		p.PerFlow[i] = col.Throughput(stats.SpecKey(s))
		p.Total += p.PerFlow[i]
	}
	return p
}

// Table renders the curve family as one row per injection rate.
func (r Fig4Result) Table() *stats.Table {
	title := "Figure 4(a): accepted throughput per flow, No QoS (LRG)"
	if r.QoS {
		title = "Figure 4(b): accepted throughput per flow, QoS (SSVC Virtual Clock)"
	}
	headers := []string{"inj(flits/in/cyc)"}
	for i := range Fig4Rates {
		headers = append(headers, fmt.Sprintf("flow%d(r=%.2f)", i+1, Fig4Rates[i]))
	}
	headers = append(headers, "total")
	t := stats.NewTable(title, headers...)
	for _, p := range r.Points {
		cells := make([]any, 0, len(headers))
		cells = append(cells, fmt.Sprintf("%.2f", p.InjectionRate))
		for _, v := range p.PerFlow {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		cells = append(cells, fmt.Sprintf("%.3f", p.Total))
		t.AddRow(cells...)
	}
	return t
}

// Saturated returns the curve's final point (injection rate 1.0), used by
// tests and EXPERIMENTS.md to compare against the paper's congestion
// behaviour.
func (r Fig4Result) Saturated() Fig4Point {
	return r.Points[len(r.Points)-1]
}
