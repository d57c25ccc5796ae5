# Build/verify entry points. `make check` is the CI gate; the bench
# targets regenerate the paper's evaluation with or without a
# telemetry snapshot.

GO ?= go

.PHONY: build test check vet race lint perfbench-check bench bench-obs bench-sim bench-detect bench-gate fuzz clean

# FUZZTIME bounds each fuzz target's smoke run (the committed seed
# corpora under internal/truenorth/testdata/fuzz always run as plain
# tests; this is extra mutation time).
FUZZTIME ?= 15s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the whole tree under the race detector; the
# concurrency-sensitive packages (telemetry registry, simulator,
# data-parallel trainer) get their coverage from their own tests.
race:
	$(GO) test -race ./...

# lint runs the repo's custom static-analysis suite: the per-file
# AST analyzers (determinism, wall-clock, fixed-point,
# telemetry-gating, panic invariants) plus the type-aware
# whole-program analyzers (hot-path allocation proof, map-order
# determinism, goroutine joins, enum-switch exhaustiveness), with the
# suppression count gated against the committed lint_budget.json. It
# also statically validates the built-in corelet against the
# TrueNorth hardware envelope. See cmd/pcnn-lint.
lint:
	$(GO) run ./cmd/pcnn-lint -budget lint_budget.json
	$(GO) run ./cmd/pcnn-lint -model builtin

check: build vet lint test race

# perfbench-check vets and self-tests the repository benchmark. It is
# a Go module of its own (replace repro => ../), so go vet ./... and
# go test ./... never compile it, yet it calls the public extractor,
# partition and detector APIs.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# bench regenerates the paper's tables/figures as benchmarks.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# bench-obs is bench with telemetry on, writing a machine-readable
# snapshot (simulator counters, training series, detection timings)
# via the internal/obs exporter.
bench-obs:
	BENCH_OBS_OUT=BENCH_obs.json $(GO) test -bench=. -benchmem -run '^$$'

# bench-sim runs only the simulator engine benchmarks (dense vs sparse
# Step at several activity levels, the sharded tick, the >4096-core
# multi-chip shard-count sweep, plus the NApprox corelet run) and
# writes the telemetry snapshot — including the
# truenorth.active_cores_per_tick histogram and the per-shard-count
# truenorth.shard<N>.ticks_per_sec gauges — to BENCH_sim.json,
# seeding the simulator perf trajectory.
bench-sim:
	BENCH_SIM_OUT=BENCH_sim.json $(GO) test -bench 'BenchmarkStep(Dense|Sparse|Sharded)|BenchmarkMultiChipShardSweep|BenchmarkRunNApprox' -benchmem -run '^$$' .

# bench-detect runs the detection-engine benchmarks (single image and
# batch at workers 1/4/NumCPU, the 0-alloc inner scan loop, the
# temporal sequence engine on static/5%-motion/full-motion mixes, and
# the per-paradigm GridInto/DescriptorInto kernel microbenchmarks) and
# writes the telemetry snapshot — detect.workers, detect.band_ms,
# detect.worker_utilization, windows/s, detect.seq.*.frames_per_sec,
# detect.reuse_ratio — to BENCH_detect.json.
# $(CURDIR) pins the path because go test runs in the package dir.
bench-detect:
	BENCH_DETECT_OUT=$(CURDIR)/BENCH_detect.json $(GO) test ./internal/detect -bench 'BenchmarkDetect(Image|All|ScanInner|Sequence)|BenchmarkGridInto|BenchmarkDescriptorInto' -benchmem -run '^$$'

# bench-gate is the regression sentinel: short (-benchtime=1x) runs of
# the detection and simulator benchmarks write fresh telemetry
# snapshots, and cmd/pcnn-bench diffs them against the committed
# BENCH_*.json baselines under per-metric direction rules. BENCH_SLACK
# multiplies every noise tolerance; CI uses 4 because one-iteration
# runs on shared runners are noisy — the lane still catches order-of-
# magnitude collapses and any nonzero error counter. Run with
# BENCH_SLACK=1 locally for a tight pass.
BENCH_SLACK ?= 4
bench-gate:
	BENCH_DETECT_OUT=/tmp/pcnn-bench-detect.json $(GO) test ./internal/detect -bench 'BenchmarkDetect(Image|All|ScanInner|Sequence)|BenchmarkGridInto|BenchmarkDescriptorInto' -benchtime=1x -benchmem -run '^$$'
	BENCH_SIM_OUT=/tmp/pcnn-bench-sim.json $(GO) test -bench 'BenchmarkStep(Dense|Sparse|Sharded)|BenchmarkMultiChipShardSweep|BenchmarkRunNApprox' -benchtime=1x -benchmem -run '^$$' .
	$(GO) run ./cmd/pcnn-bench -slack $(BENCH_SLACK) \
		-baseline BENCH_detect.json -fresh /tmp/pcnn-bench-detect.json \
		-baseline BENCH_sim.json -fresh /tmp/pcnn-bench-sim.json

# fuzz smoke-runs each native fuzz target for FUZZTIME. go test allows
# one -fuzz pattern per invocation, hence the separate runs.
fuzz:
	$(GO) test ./internal/truenorth -run '^$$' -fuzz '^FuzzModelRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/truenorth -run '^$$' -fuzz '^FuzzDenseSparseEquivalence$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/truenorth -run '^$$' -fuzz '^FuzzShardEquivalence$$' -fuzztime $(FUZZTIME)

clean:
	rm -f BENCH_obs.json BENCH_sim.json BENCH_detect.json
