package main

// This file names every workload and metric the benchmark reports.
// BENCHMARK.json at the module root lists the same names for the driver;
// the smoke test keeps the two in step. Later issues state their claim
// and their no-regression set with these names.

type workloadDef struct {
	Name string
	Why  string
	run  func(*env) *workloadResult
}

var workloads = []workloadDef{
	{"xbar64_sat", "saturated radix-64 crossbar with 5.7 requesters per arbitration: the only workload where core/arb bitplane arbitration does most of the work", runSim},
	{"xbar64_sparse", "same switch at 2 % load: fabric.Sources calendar, work masks and per-output Tick do the work, arbitration almost none", runSim},
	{"routed_sat", "8x8 mesh and 8-leaf Clos saturated for equal cycle counts: mesh/compose/fabric.Buffer credit flow dominate, the bitplane path is bypassed", runSim},
	{"paper_suite", "the real ssvc-bench process: hundreds of short constructions, warm-ups, stats collection and runner fan-out on the same engines", runSuite},
	{"serve_churn", "add/resize/remove churn over TCP against live ssvc-serve daemons, each SIGKILLed and its journal checked: the only path through chunk wait, Plane.Apply and fsync", runServe},
	{"ctl_recover", "in-process, fully deterministic journaled writes then RecoverFile on one ctlplane: isolates it from TCP and wall-clock cycle stamps", runCtl},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one metric. Better is "higher" or "lower". On is
// the workloads the metric is defined on. The driver's result line must
// carry every metric of the run's kind on every workload: elsewhere a
// per-layer metric reads 0, and an end-to-end metric is filled (see fill)
// and not judged by -compare.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Doc    string
	On     []string
}

var (
	onSat    = []string{"xbar64_sat"}
	onSparse = []string{"xbar64_sparse"}
	onXbar   = []string{"xbar64_sat", "xbar64_sparse"}
	onRouted = []string{"routed_sat"}
	onSims   = []string{"xbar64_sat", "xbar64_sparse", "routed_sat"}
	onSuite  = []string{"paper_suite"}
	onServe  = []string{"serve_churn"}
	onCtl    = []string{"ctl_recover"}
	onAll    = []string{"xbar64_sat", "xbar64_sparse", "routed_sat", "paper_suite", "serve_churn", "ctl_recover"}
	// onInProcess: set-up and timed window run inside the benchmark's own
	// process.
	onInProcess = []string{"xbar64_sat", "xbar64_sparse", "routed_sat", "ctl_recover"}
)

// endToEnd metrics come from the untraced run. Times are host time
// unless marked simulated. Where one run executes its timed work several
// times (passes), a part of it, a command's step, an experiment or a
// stretch of a recovery, is timed at the fastest of its executions: see
// fastest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", On: onAll,
		Doc: "the fastest of a run's set-ups, excluded from every other metric: engine or plane construction, flow attachment, warm-up (9 on the sim workloads, one per pass on ctl_recover); on serve_churn spawning the daemon, connecting and installing the long-lived reservations, one per pass; on paper_suite a warm-up execution an eighth as long, every table at the fastest of 3"},
	{Name: "sim_cycles_per_s", Unit: "1/s", Better: "higher", On: onSims,
		Doc: "simulated cycles per host second: 99th percentile over the Run calls of one continuing run, the rate of its fastest hundredth"},
	{Name: "sim_pkts_per_s", Unit: "1/s", Better: "higher", On: onSims,
		Doc: "delivered packets (exact, simulated) over the timed window's length at that rate"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", On: onInProcess,
		Doc: "runtime.MemStats.TotalAlloc from the start of the last set-up to the end of the timed window (on ctl_recover: of the last pass, its recovery included)"},
	{Name: "suite_wall_s", Unit: "s", Better: "lower", On: onSuite,
		Doc: "wall time of the ssvc-bench process: every table, and the exit after the last, at the fastest of 4 executions"},
	{Name: "admit_per_s", Unit: "1/s", Better: "higher", On: []string{"serve_churn", "ctl_recover"},
		Doc: "commands acked OK over the time of the script's steps, each step at the fastest of its passes: serve_churn 12 passes over TCP, ctl_recover 6 in-process write phases"},
	{Name: "ack_p50_ms", Unit: "ms", Better: "lower", On: onServe,
		Doc: "a closed-loop caller's time per command, reply to reply (send to reply line plus its own turnaround), each step at the fastest of 12 passes: median over the script"},
	{Name: "ack_p90_ms", Unit: "ms", Better: "lower", On: onServe,
		Doc: "the same, 90th percentile: the late commands, which carry the history the daemon has gathered"},
	{Name: "recover_s", Unit: "s", Better: "lower", On: onCtl,
		Doc: "ctlplane.RecoverFile on the journal the write phase produced: every stretch of 2048 re-executed deliveries at the fastest of 6 recoveries"},
}

// perLayer metrics come from the traced run. *_share is time over traced
// wall; *_ns and *_us kernels are batch-timed loops over public functions;
// counts are exact and must be identical across commits that claim a
// simulator-only change.
var perLayer = []metricDef{
	{Name: "core.arbitrate_share", Unit: "share", Better: "lower", On: onXbar, Doc: "time in SSVC.Arbitrate over traced wall"},
	{Name: "core.granted_share", Unit: "share", Better: "lower", On: onXbar, Doc: "time in SSVC.Granted"},
	{Name: "core.tick_share", Unit: "share", Better: "lower", On: onXbar, Doc: "time in SSVC.Tick, called once per output per cycle"},
	{Name: "core.arbitrate_calls_per_cycle", Unit: "count", Better: "lower", On: onXbar, Doc: "exact"},
	{Name: "core.arbitrate_reqs_per_call", Unit: "count", Better: "higher", On: onXbar, Doc: "exact; requests offered per arbitration"},
	{Name: "core.arbitrate_ns_r64", Unit: "ns", Better: "lower", On: onSat, Doc: "one fully contended radix-64 bitplane arbitration"},
	{Name: "core.arbitrate_ns_r256", Unit: "ns", Better: "lower", On: onSat, Doc: "the same at radix 256, the multi-word masks"},
	{Name: "core.granted_ns_r64", Unit: "ns", Better: "lower", On: onSat, Doc: "one Granted"},
	{Name: "core.tick_ns_r64", Unit: "ns", Better: "lower", On: onSat, Doc: "one Tick"},
	{Name: "core.setvticks_us_r64", Unit: "us", Better: "lower", On: onSat, Doc: "one SetVticks, the live re-derivation every accepted command triggers"},

	{Name: "arb.lrg_share", Unit: "share", Better: "lower", On: onRouted, Doc: "time in LRG Arbitrate+Granted+Tick over traced wall"},
	{Name: "arb.lrg_arbitrate_ns_r5", Unit: "ns", Better: "lower", On: onRouted, Doc: "5-port LRG arbitration, the scalar path"},
	{Name: "arb.lrg_grant_ns_r64", Unit: "ns", Better: "lower", On: onSat, Doc: "LRGState.Grant on rank bitplanes"},
	{Name: "arb.lrg_minrank_ns_r64", Unit: "ns", Better: "lower", On: onSat, Doc: "LRGState.MinRankIn1 over a full word"},

	{Name: "switchsim.self_share", Unit: "share", Better: "lower", On: onXbar, Doc: "Run self time: span minus the wrapped boundaries"},
	{Name: "switchsim.pkts_per_cycle", Unit: "count", Better: "higher", On: onXbar, Doc: "exact, simulated"},
	{Name: "switchsim.data_cycles_per_cycle", Unit: "count", Better: "higher", On: onXbar, Doc: "exact, simulated"},
	{Name: "switchsim.skipped_outputs_per_cycle", Unit: "count", Better: "higher", On: onXbar, Doc: "exact; idle output-cycles the work masks skipped"},

	{Name: "mesh.ns_per_cycle", Unit: "ns", Better: "lower", On: onRouted, Doc: "untraced"},
	{Name: "mesh.self_share", Unit: "share", Better: "lower", On: onRouted, Doc: "mesh Run self time over traced wall"},
	{Name: "mesh.pkts_per_cycle", Unit: "count", Better: "higher", On: onRouted, Doc: "exact, simulated"},
	{Name: "compose.ns_per_cycle", Unit: "ns", Better: "lower", On: onRouted, Doc: "untraced"},
	{Name: "compose.self_share", Unit: "share", Better: "lower", On: onRouted, Doc: "compose Run self time over traced wall"},
	{Name: "compose.pkts_per_cycle", Unit: "count", Better: "higher", On: onRouted, Doc: "exact, simulated"},

	{Name: "fabric.buffer_ns_per_pkt", Unit: "ns", Better: "lower", On: onRouted, Doc: "CanAccept+Reserve+Commit+Pop of one packet"},
	{Name: "fabric.sources_generate_ns_event", Unit: "ns", Better: "lower", On: onSparse, Doc: "one Generate cycle over 128 Bernoulli flows on the calendar"},
	{Name: "fabric.sources_generate_ns_polled", Unit: "ns", Better: "lower", On: onSparse, Doc: "the same polled, as under ctlplane's DynamicFlows"},
	{Name: "fabric.sources_admit_ns", Unit: "ns", Better: "lower", On: onSparse, Doc: "one AdmitGroup that admits"},
	{Name: "fabric.txpool_ns", Unit: "ns", Better: "lower", On: onRouted, Doc: "TxPool Get+Put"},

	{Name: "traffic.gen_share", Unit: "share", Better: "lower", On: onSims, Doc: "time in generator Tick/NextArrival/Emit"},
	{Name: "traffic.gen_calls_per_cycle", Unit: "count", Better: "lower", On: onSims, Doc: "exact"},
	{Name: "traffic.bernoulli_ns", Unit: "ns", Better: "lower", On: onSparse, Doc: "one polled Bernoulli Tick at 2 %"},
	{Name: "traffic.backlogged_ns", Unit: "ns", Better: "lower", On: onSparse, Doc: "one Backlogged Tick that emits, packet recycled"},

	{Name: "stats.deliver_share", Unit: "share", Better: "lower", On: onSims, Doc: "time in Collector.OnDeliver"},
	{Name: "stats.record_ns", Unit: "ns", Better: "lower", On: onSuite, Doc: "one Collector.OnDeliver over 64 flows"},

	{Name: "shard.barrier_ns_w2", Unit: "ns", Better: "lower", On: onSat, Doc: "one stage barrier of a 2-worker team"},
	{Name: "shard.xbar64_ns_per_cycle_s1", Unit: "ns", Better: "lower", On: onSat, Doc: "xbar64_sat flows, 1 shard (inline)"},
	{Name: "shard.xbar64_ns_per_cycle_s2", Unit: "ns", Better: "lower", On: onSat, Doc: "xbar64_sat flows, 2 shards"},
	{Name: "shard.mesh_ns_per_cycle_s1", Unit: "ns", Better: "lower", On: onRouted, Doc: "routed_sat mesh, 1 shard (inline)"},
	{Name: "shard.mesh_ns_per_cycle_s2", Unit: "ns", Better: "lower", On: onRouted, Doc: "routed_sat mesh, 2 shards"},

	{Name: "experiments.fig4a_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.fig4b_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.adherence_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.idleskip_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.chaining_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.scale64_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.motivation_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.gsf_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.faults_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.ctlplane_s", Unit: "s", Better: "lower", On: onSuite},
	{Name: "experiments.other_s", Unit: "s", Better: "lower", On: onSuite, Doc: "every experiment not named above"},
	{Name: "runner.parallel_efficiency", Unit: "share", Better: "higher", On: onSuite, Doc: "CPU time of the suite process over wall x workers"},

	{Name: "ctlplane.table_admit_ns", Unit: "ns", Better: "lower", On: onCtl, Doc: "Table.Admit+Remove of one GB reservation"},
	{Name: "ctlplane.apply_nojournal_us", Unit: "us", Better: "lower", On: onCtl, Doc: "Plane.Apply add+remove without a journal, per command"},
	{Name: "ctlplane.apply_journal_p50_us", Unit: "us", Better: "lower", On: []string{"ctl_recover", "serve_churn"}, Doc: "Plane.Apply with the journal in the work dir, fsync included"},
	{Name: "ctlplane.journal_append_us", Unit: "us", Better: "lower", On: onCtl, Doc: "Journal.Append of one command record (buffered)"},
	{Name: "ctlplane.journal_sync_p50_us", Unit: "us", Better: "lower", On: onCtl, Doc: "Journal.Sync after one record"},
	{Name: "ctlplane.journal_sync_p99_us", Unit: "us", Better: "lower", On: onCtl},
	{Name: "ctlplane.journal_bytes_per_cmd", Unit: "B", Better: "lower", On: onCtl, Doc: "exact; journal size over accepted commands, snapshots included"},
	{Name: "ctlplane.advance_ns_per_cycle_first", Unit: "ns", Better: "lower", On: onCtl, Doc: "Advance cost in the first decile of the write phase"},
	{Name: "ctlplane.advance_ns_per_cycle_last", Unit: "ns", Better: "lower", On: onCtl, Doc: "in the last decile: detached flows are never reclaimed"},
	{Name: "ctlplane.snapshot_us_first", Unit: "us", Better: "lower", On: onCtl, Doc: "Advance across a snapshot boundary minus plain Advance, first decile"},
	{Name: "ctlplane.snapshot_us_last", Unit: "us", Better: "lower", On: onCtl},
	{Name: "ctlplane.decode_us_per_record", Unit: "us", Better: "lower", On: onCtl, Doc: "ReadJournal over the record count"},
	{Name: "ctlplane.rebuild_ns_per_cycle", Unit: "ns", Better: "lower", On: onCtl, Doc: "Rebuild over the simulated cycles replayed"},

	{Name: "serve.ack_p99_ms", Unit: "ms", Better: "lower", On: onServe, Doc: "grows with run history; did not repeat within a tenth in sizing"},
	{Name: "serve.ack_max_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "serve.ack_p99_first_ms", Unit: "ms", Better: "lower", On: onServe, Doc: "first decile of commands"},
	{Name: "serve.ack_p99_last_ms", Unit: "ms", Better: "lower", On: onServe, Doc: "last decile of commands"},
	{Name: "serve.chunk_wait_ms", Unit: "ms", Better: "lower", On: onServe, Doc: "ack_p50_ms minus ctlplane.apply_journal_p50_us"},
	{Name: "serve.sim_cycles_per_s", Unit: "1/s", Better: "higher", On: onServe, Doc: "from the cycle= stamps in replies"},
	{Name: "serve.rejected_expected", Unit: "count", Better: "higher", On: onServe, Doc: "exact; designed over-budget adds refused with gb-budget"},
	{Name: "serve.acked_missing", Unit: "count", Better: "lower", On: onServe, Doc: "commands acked OK that the recovered journal does not hold; must be 0"},
	{Name: "serve.connect_ms", Unit: "ms", Better: "lower", On: onServe, Doc: "spawn to first accepted connection"},
	{Name: "serve.daemon_rss_mb", Unit: "MB", Better: "lower", On: onServe, Doc: "peak RSS of the daemon"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", On: onAll, Doc: "traced wall over untraced wall of the same inputs, minus 1"},
}

func findMetric(name string) *metricDef {
	for _, set := range [2][]metricDef{endToEnd, perLayer} {
		for i := range set {
			if set[i].Name == name {
				return &set[i]
			}
		}
	}
	return nil
}

// on reports whether the metric is defined on the workload.
func (d *metricDef) on(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}
