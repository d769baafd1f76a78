# Standard entry points for the swizzleqos reproduction.

GO ?= go

.PHONY: all check build test portable race vet fmt lint bench-arb perf perf-pairs cpu-pairs perf-smoke serve-check suite-check staticcheck govulncheck bench experiments verify examples cover fuzz

all: build vet test

# Full local gate: build, vet, formatting, the in-repo invariant linter,
# tests, the race detector over the parallel sweep engine and everything
# layered on it, plus the optional linters (skipped with a notice when
# not installed).
check: build vet fmt lint staticcheck govulncheck test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The goldens on a second architecture: a 32-bit, pure-Go build must
# print the same bytes, which the determinism lint's ban on
# architecture-dependent math functions keeps possible.
portable:
	CGO_ENABLED=0 GOARCH=386 $(GO) test ./...

# The sweep runner fans simulations across goroutines; keep the race
# detector on the whole module, not just the runner package. That
# covers the shared processor budget too: its own tests in
# internal/runner (bound, rank order, fork/join hand-off, panics),
# several experiments on one budget in internal/experiments, and the
# whole overlapped suite at three budget sizes in cmd/ssvc-bench.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# In-repo invariant linter (stdlib-only, see DESIGN.md "Invariants"):
# every rule of the Rules table in internal/analysis/rules.go.
# Exceptions are //ssvc:allow markers at their sites, a reason each.
lint:
	$(GO) run ./cmd/ssvc-lint ./...

# Perf gate for the word-parallel arbitration path: the bitplane/scalar
# equivalence fuzz seed corpus, the oracles the saturated crossbar and
# routed cycles rest on (the LRG stamps against the move-to-back
# list, the shared standing offers, arbiter clock and admission-skip mask
# against their fabric oracles, each engine's standing offers against a
# per-cycle scan, the crossbar in lock step with its spec (internal/spec,
# a model that shares no code with it), the routed
# engine in lock step with its scan oracle, its sleeping outputs and
# completion calendar against the same oracle, its offer evaluations and
# serve calls per saturated cycle, the crossbar's refusal memory against
# the heads it hides and its admission tries per saturated cycle), then a
# short-benchtime sweep of the arbitration and cycle-loop benchmarks and
# of the Bernoulli scan's cost per draw at six probabilities, for each
# path: path=dispatch as a generator runs it, path=go (the two-lane Go
# scan) and path=kernel (the AVX-512 kernel, on a CPU that has one), so
# the cut-over between the two (kernelOdds, p = 1/16) stays re-checkable.
# The sweep is informational: CI hardware is too noisy to gate on ns/op,
# and the allocation gate over the same configurations is
# TestSteadyStateAllocs, which `make test` runs.
bench-arb:
	$(GO) test ./internal/circuit/ -run 'FuzzBitplaneEquivalence'
	$(GO) test ./internal/arb/ -run 'TestLRGMatrixMatchesList|FuzzLRGMatrix|TestLRGStampRenumber|TestListArbitersMatchRankReference'
	$(GO) test ./internal/fabric/ -run 'FuzzOffers|TestClocksMatchEveryCycle|TestSkipMask'
	$(GO) test ./internal/switchsim/ -run 'TestOffersMatchScan|TestRefusalMemoNeverHidesAHead|TestAdmitTriesFollowDrains|TestSpecMatchesSwitch'
	$(GO) test ./internal/compose/ -run 'TestOffersMatchScan|TestBucketsMatchScan|TestOfferEvalsFollowGrants|TestSleepingOutputsNeverHideAGrant|TestServeVisitsFollowGrants'
	$(GO) test -run='^$$' -bench='BitplaneArbitrate|SwitchCycleRecycled|SwitchCycleSat|SwitchCycleIdle|SwitchCycleFaults|MeshCycleRecycled|ComposeCycleRecycled|RoutedSaturated|BernoulliNextArrival' \
		-benchmem -benchtime=10000x ./internal/core/ ./internal/switchsim/ ./internal/mesh/ ./internal/compose/ ./internal/traffic/

# The repository's benchmark (bench/README.md, BENCHMARK.json): six
# workloads, nine end-to-end metrics. perf-pairs builds ./bench in a
# second checkout and in this one and alternates ten paired runs, the
# only comparison a claim or a no-regression statement may rest on:
#   make perf-pairs BASE=/path/to/parent-checkout [WORKLOAD=routed_sat]
PERF_WORKLOAD = $(if $(WORKLOAD),-workload $(WORKLOAD))
perf:
	$(GO) run ./bench $(PERF_WORKLOAD)

perf-pairs:
	@test -n "$(BASE)" || { echo "usage: make perf-pairs BASE=<checkout of the parent commit>"; exit 2; }
	$(GO) run ./bench -compare -pairs 10 $(PERF_WORKLOAD) $(BASE) .

# CPU-time pairs of fixed-work go test kernels (scripts/cpupairs): both
# sides of a pair share one vCPU under taskset and are rated by their
# user + system CPU time, with an A/A row per kernel beside the A/B row.
#   make cpu-pairs BASE=/path/to/parent-checkout
cpu-pairs:
	@test -n "$(BASE)" || { echo "usage: make cpu-pairs BASE=<checkout of the parent commit>"; exit 2; }
	$(GO) run ./scripts/cpupairs $(BASE) .

# The benchmark at a tenth of a second, for its exit code, not its
# numbers. The two control-plane workloads: every pass of ctl_recover must
# reach the same state and recover to it from its journal, and every
# command a serve_churn daemon acked must be in the journal it leaves
# behind a SIGKILL; a change to source generation or flow reclamation
# under DynamicFlows that moves one packet fails here. The three sim
# workloads, traced: the tracing wrapper hides an arbiter's NextTick, so
# the traced side ticks every arbiter every cycle and the bare side ticks
# on deadlines, and the harness fails unless the two agree on every slice
# digest — the tick-cadence differential on the benchmark's own inputs.
# paper_suite: the whole ssvc-bench suite at seed 1, 2000 cycles, must
# print the bytes whose hash bench/expected.json pins, so a change to
# what any experiment prints fails here on every push.
perf-smoke:
	$(GO) run ./bench -seconds 0.1 -workload ctl_recover
	$(GO) run ./bench -seconds 0.1 -workload serve_churn
	$(GO) run ./bench -seconds 0.1 -workload paper_suite
	$(GO) run ./bench -seconds 0.1 -trace 1 -workload xbar64_sparse
	$(GO) run ./bench -seconds 0.1 -trace 1 -workload xbar64_sat
	$(GO) run ./bench -seconds 0.1 -trace 1 -workload routed_sat

# End-to-end crash-recovery gate for the control plane: run the scripted
# ssvc-serve scenario uninterrupted, SIGKILL a paced copy mid-run and
# resume it from its journal, then replay the journal offline — all
# three delivery traces and recovered summaries must be byte-identical
# (DESIGN.md "Control plane"). Then the daemon's own tests under the race
# detector: concurrent clients over loopback TCP whose commands commit
# in batches, every OK checked against the journal, a clean stop
# mid-churn, and the TCP edge's limits.
serve-check:
	sh scripts/serve_check.sh
	$(GO) test -race -count=1 ./cmd/ssvc-serve/

# The ssvc-bench binary end to end: the whole -quick suite prints the
# same bytes with its tables one after another (-workers 1) and
# overlapped on one budget of four processors, and an unknown -exp name
# refuses the selection with exit 2.
suite-check:
	sh scripts/suite_check.sh

# Optional linters: run when present, skip with a notice otherwise. The
# container baseline has no network, so these must never try to install.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

# gofmt -l exits 0 even when files need formatting; fail explicitly so
# `make check` gates on formatting.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# One benchmark per paper table/figure; headline numbers as metrics.
# -run=^$ skips the unit tests so only benchmarks execute.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Regenerate every table and figure at full length (EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/ssvc-bench -cycles 100000 -warmup 10000

# The paper's §4.1 wire-level verification.
verify:
	$(GO) run ./cmd/ssvc-verify -radix 4 -lanes 6 -classes
	$(GO) run ./cmd/ssvc-verify -radix 8 -lanes 16 -classes -trials 100000

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/basestation
	$(GO) run ./examples/interrupts
	$(GO) run ./examples/latencyfairness
	$(GO) run ./examples/planner

# Coverage with a floor: the build fails if total statement coverage
# drops below COVER_MIN (the tree sits comfortably above it; the floor
# catches a PR that lands a subsystem without tests).
COVER_MIN ?= 70
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk "BEGIN { exit !($$total >= $(COVER_MIN)) }" || { \
		echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; \
	}

# Short fuzzing sessions for the fuzz targets: every func Fuzz* in the
# tree, which TestMakeFuzzListsEveryTarget holds this list to.
fuzz:
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSSVCGrantSequence -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzThermRoundTrip -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSSVCSaturationModel -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzSSVCEpoch -fuzztime 30s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzBufferInvariants -fuzztime 30s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzSourcesLateAdd -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzRefusalMemo -fuzztime 30s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzOffers -fuzztime 30s
	$(GO) test ./internal/fabric/ -run '^$$' -fuzz FuzzCalendar -fuzztime 30s
	$(GO) test ./internal/stats/ -run '^$$' -fuzz FuzzCollector -fuzztime 30s
	$(GO) test ./internal/traffic/ -run '^$$' -fuzz FuzzBernoulliScan -fuzztime 30s
	$(GO) test ./internal/traffic/ -run '^$$' -fuzz FuzzClosedLoopSchedule -fuzztime 30s
	$(GO) test ./internal/circuit/ -run '^$$' -fuzz FuzzBitplaneEquivalence -fuzztime 30s
	$(GO) test ./internal/arb/ -run '^$$' -fuzz FuzzLRGMatrix -fuzztime 30s
	$(GO) test ./internal/compose/ -run '^$$' -fuzz FuzzRoutedOffers -fuzztime 30s
	$(GO) test ./internal/switchsim/ -run '^$$' -fuzz FuzzSpec -fuzztime 30s
	$(GO) test ./internal/ctlplane/ -run '^$$' -fuzz FuzzAdmission -fuzztime 30s
	$(GO) test ./internal/ctlplane/ -run '^$$' -fuzz FuzzCostProducts -fuzztime 30s
	$(GO) test ./internal/ctlplane/ -run '^$$' -fuzz FuzzCommandLine -fuzztime 30s
	$(GO) test ./internal/ctlplane/ -run '^$$' -fuzz FuzzPlanVsTable -fuzztime 30s
	$(GO) test ./internal/ctlplane/ -run '^$$' -fuzz FuzzRestoreState -fuzztime 30s -fuzzminimizetime 2s
	$(GO) test ./internal/ctlplane/ -run '^$$' -fuzz FuzzJournalWindow -fuzztime 30s
	$(GO) test ./cmd/ssvc-sim/ -run '^$$' -fuzz FuzzScenarioParse -fuzztime 30s -fuzzminimizetime 2s
