// Command ssvc-sim runs one switch simulation described by a JSON scenario
// file and prints the per-flow report.
//
// Usage:
//
//	ssvc-sim -scenario scenario.json [-print-scenario] [-packet-log out.jsonl]
//
// A scenario combines the switch configuration with its workloads:
//
//	{
//	  "radix": 8,
//	  "busWidthBits": 128,
//	  "arbitration": "SSVC",
//	  "policy": "SubtractRealClock",
//	  "warmupCycles": 10000,
//	  "measureCycles": 100000,
//	  "glRate": 0.05, "glPacketLength": 4, "glBurst": 4,
//	  "workloads": [
//	    {"src": 0, "dst": 0, "class": "GB", "rate": 0.4, "packetLength": 8,
//	     "inject": {"kind": "bernoulli", "rate": 0.4, "seed": 1}},
//	    {"src": 7, "dst": 0, "class": "GL", "rate": 0.05, "packetLength": 2,
//	     "inject": {"kind": "periodic", "interval": 5000}}
//	  ]
//	}
//
// Run with -print-scenario to emit a commented example and exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"swizzleqos"
)

// scenario is the JSON schema of one simulation.
type scenario struct {
	Radix          int     `json:"radix"`
	BusWidthBits   int     `json:"busWidthBits"`
	Arbitration    string  `json:"arbitration"`
	Policy         string  `json:"policy"`
	CounterBits    int     `json:"counterBits"`
	SigBits        int     `json:"sigBits"`
	BEBufferFlits  int     `json:"beBufferFlits"`
	GLBufferFlits  int     `json:"glBufferFlits"`
	GBBufferFlits  int     `json:"gbBufferFlits"`
	PacketChaining bool    `json:"packetChaining"`
	GLRate         float64 `json:"glRate"`
	GLPacketLength int     `json:"glPacketLength"`
	GLBurst        int     `json:"glBurst"`

	WarmupCycles  uint64 `json:"warmupCycles"`
	MeasureCycles uint64 `json:"measureCycles"`

	Workloads []workload `json:"workloads"`
}

type workload struct {
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	Class        string  `json:"class"`
	Rate         float64 `json:"rate"`
	PacketLength int     `json:"packetLength"`
	Inject       inject  `json:"inject"`
}

type inject struct {
	Kind      string   `json:"kind"` // bernoulli, bursty, periodic, backlogged, trace
	Rate      float64  `json:"rate"`
	MeanBurst float64  `json:"meanBurst"`
	Interval  uint64   `json:"interval"`
	Offset    uint64   `json:"offset"`
	Depth     int      `json:"depth"`
	Times     []uint64 `json:"times"`
	Seed      uint64   `json:"seed"`
}

const exampleScenario = `{
  "radix": 8,
  "busWidthBits": 128,
  "arbitration": "SSVC",
  "policy": "SubtractRealClock",
  "warmupCycles": 10000,
  "measureCycles": 100000,
  "glRate": 0.05, "glPacketLength": 4, "glBurst": 4,
  "workloads": [
    {"src": 0, "dst": 0, "class": "GB", "rate": 0.40, "packetLength": 8,
     "inject": {"kind": "backlogged", "depth": 4}},
    {"src": 1, "dst": 0, "class": "GB", "rate": 0.20, "packetLength": 8,
     "inject": {"kind": "backlogged", "depth": 4}},
    {"src": 2, "dst": 0, "class": "GB", "rate": 0.10, "packetLength": 8,
     "inject": {"kind": "bursty", "rate": 0.10, "meanBurst": 4, "seed": 7}},
    {"src": 3, "dst": 0, "class": "BE", "packetLength": 8,
     "inject": {"kind": "bernoulli", "rate": 0.05, "seed": 9}},
    {"src": 7, "dst": 0, "class": "GL", "rate": 0.05, "packetLength": 2,
     "inject": {"kind": "periodic", "interval": 5000}}
  ]
}`

func main() {
	var (
		path      = flag.String("scenario", "", "path to the JSON scenario")
		printOnly = flag.Bool("print-scenario", false, "print an example scenario and exit")
		pktLog    = flag.String("packet-log", "", "write one JSON record per delivered packet to this file")
	)
	flag.Parse()
	if *printOnly {
		fmt.Println(exampleScenario)
		return
	}
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*path, *pktLog); err != nil {
		fmt.Fprintln(os.Stderr, "ssvc-sim:", err)
		os.Exit(1)
	}
}

// packetRecord is one line of the -packet-log output.
type packetRecord struct {
	ID        uint64 `json:"id"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Class     string `json:"class"`
	Length    int    `json:"lengthFlits"`
	Created   uint64 `json:"createdAt"`
	Enqueued  uint64 `json:"enqueuedAt"`
	Granted   uint64 `json:"grantedAt"`
	Delivered uint64 `json:"deliveredAt"`
}

func run(path, pktLog string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var sc scenario
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	cfg, workloads, err := sc.build()
	if err != nil {
		return err
	}
	net, err := swizzleqos.New(cfg, workloads...)
	if err != nil {
		return err
	}
	// The packet log keeps its first write error, and later records are
	// not written: a full disk fails the run instead of leaving a
	// truncated log behind an exit status of 0.
	var logFile *os.File
	var logErr error
	if pktLog != "" {
		if logFile, err = os.Create(pktLog); err != nil {
			return err
		}
		enc := json.NewEncoder(logFile)
		net.OnDeliver(func(p *swizzleqos.Packet) {
			if logErr == nil {
				logErr = enc.Encode(packetRecord{
					ID: p.ID, Src: p.Src, Dst: p.Dst,
					Class: p.Class.String(), Length: p.Length,
					Created: p.CreatedAt.Uint(), Enqueued: p.EnqueuedAt.Uint(),
					Granted: p.GrantedAt.Uint(), Delivered: p.DeliveredAt.Uint(),
				})
			}
		})
	}
	warmup, measure := sc.WarmupCycles, sc.MeasureCycles
	if measure == 0 {
		measure = 100000
	}
	net.Run(swizzleqos.CycleOf(warmup))
	net.StartMeasurement()
	net.Run(swizzleqos.CycleOf(measure))
	rep := net.Report()
	fmt.Print(rep.Table())
	fmt.Printf("total packets delivered: %d\n", rep.TotalPackets())
	if logFile != nil {
		if err := logFile.Close(); logErr == nil {
			logErr = err
		}
		if logErr != nil {
			return fmt.Errorf("packet log: %w", logErr)
		}
	}
	return nil
}

func (sc scenario) build() (swizzleqos.Config, []swizzleqos.Workload, error) {
	if sc.Radix == 0 {
		return swizzleqos.Config{}, nil, fmt.Errorf("scenario: radix is required")
	}
	cfg := swizzleqos.DefaultConfig(sc.Radix)
	if sc.BusWidthBits != 0 {
		cfg.BusWidthBits = sc.BusWidthBits
	}
	if sc.Arbitration != "" {
		arb, err := parseArbitration(sc.Arbitration)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Arbitration = arb
	}
	if sc.Policy != "" {
		pol, err := parsePolicy(sc.Policy)
		if err != nil {
			return cfg, nil, err
		}
		cfg.Policy = pol
	}
	cfg.CounterBits = sc.CounterBits
	cfg.SigBits = sc.SigBits
	if sc.BEBufferFlits != 0 {
		cfg.BEBufferFlits = sc.BEBufferFlits
	}
	if sc.GLBufferFlits != 0 {
		cfg.GLBufferFlits = sc.GLBufferFlits
	}
	if sc.GBBufferFlits != 0 {
		cfg.GBBufferFlits = sc.GBBufferFlits
	}
	cfg.PacketChaining = sc.PacketChaining
	cfg.GL = swizzleqos.GLConfig{Rate: sc.GLRate, PacketLength: sc.GLPacketLength, Burst: sc.GLBurst}

	var ws []swizzleqos.Workload
	for i, w := range sc.Workloads {
		class, err := parseClass(w.Class)
		if err != nil {
			return cfg, nil, fmt.Errorf("workload %d: %w", i, err)
		}
		inj, err := w.Inject.build()
		if err != nil {
			return cfg, nil, fmt.Errorf("workload %d: %w", i, err)
		}
		ws = append(ws, swizzleqos.Workload{
			Spec: swizzleqos.FlowSpec{
				Src: w.Src, Dst: w.Dst, Class: class,
				Rate: w.Rate, PacketLength: w.PacketLength,
			},
			Inject: inj,
		})
	}
	return cfg, ws, nil
}

func (in inject) build() (swizzleqos.Injection, error) {
	switch strings.ToLower(in.Kind) {
	case "bernoulli":
		return swizzleqos.Inject.Bernoulli(in.Rate, in.Seed), nil
	case "bursty":
		mb := in.MeanBurst
		if mb == 0 {
			mb = 4
		}
		return swizzleqos.Inject.Bursty(in.Rate, mb, in.Seed), nil
	case "periodic":
		return swizzleqos.Inject.Periodic(swizzleqos.CycleOf(in.Interval), swizzleqos.CycleOf(in.Offset)), nil
	case "backlogged":
		return swizzleqos.Inject.Backlogged(in.Depth), nil
	case "trace":
		times := make([]swizzleqos.Cycle, len(in.Times))
		for i, t := range in.Times {
			times[i] = swizzleqos.CycleOf(t)
		}
		return swizzleqos.Inject.Trace(times...), nil
	}
	return swizzleqos.Injection{}, fmt.Errorf("unknown injection kind %q", in.Kind)
}

func parseClass(s string) (swizzleqos.Class, error) {
	switch strings.ToUpper(s) {
	case "BE", "":
		return swizzleqos.BestEffort, nil
	case "GB":
		return swizzleqos.GuaranteedBandwidth, nil
	case "GL":
		return swizzleqos.GuaranteedLatency, nil
	}
	return 0, fmt.Errorf("unknown class %q (want BE, GB, or GL)", s)
}

func parseArbitration(s string) (swizzleqos.Arbitration, error) {
	switch strings.ToLower(s) {
	case "ssvc":
		return swizzleqos.SSVC, nil
	case "lrg":
		return swizzleqos.LRG, nil
	case "roundrobin", "rr":
		return swizzleqos.RoundRobin, nil
	case "originalvirtualclock", "origvc":
		return swizzleqos.OriginalVirtualClock, nil
	case "fixedpriority":
		return swizzleqos.FixedPriority, nil
	}
	return 0, fmt.Errorf("unknown arbitration %q", s)
}

func parsePolicy(s string) (swizzleqos.CounterPolicy, error) {
	switch strings.ToLower(s) {
	case "subtractrealclock", "subtract":
		return swizzleqos.SubtractRealTime, nil
	case "divideby2", "halve":
		return swizzleqos.Halve, nil
	case "reset":
		return swizzleqos.Reset, nil
	}
	return 0, fmt.Errorf("unknown counter policy %q", s)
}
