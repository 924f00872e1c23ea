# Developer entry points. `make check` is the gate every change must pass:
# formatting (gofmt -l fails on any unformatted file), vet, build, and the
# full test suite under the race detector.

GO ?= go

.PHONY: check fmt vet build test race bench bench-pipeline bench-mapper bench-frontend bench-chaos bench-reconcile bench-loadgen bench-serve bench-all benchdiff chaos reconcile serve stages fuzz

check: fmt vet build race

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Benchmark exporters write nassim-bench/v2 documents (internal/benchdiff)
# named BENCH_<name>.json into $(BENCH_DIR), passed to them as
# NASSIM_BENCH_DIR: the repo root for the committed baselines, benchout/
# for the regression gate.
BENCH_DIR ?= .
BENCH_ENV = NASSIM_BENCH_DIR=$(BENCH_DIR)

# Engine benchmark: four vendors through the 4-worker pipeline, exported
# to BENCH_pipeline.json (run wall time, per-stage wall time).
bench-pipeline:
	$(BENCH_ENV) $(GO) test -run xxx -bench BenchmarkAssimilateParallel -benchtime 1x .

# Mapper hot-path benchmarks (vectorized Recommend, parallel MapAll,
# inverted-index TF-IDF Rank), exported to BENCH_mapper.json.
bench-mapper:
	$(BENCH_ENV) $(GO) test -run xxx \
		-bench 'BenchmarkRecommend$$|BenchmarkMapAll$$|BenchmarkTFIDFRank$$' -benchtime 200x .

# Front-end benchmarks (byte-tokenizer parse pool, compiled-template
# cache, memoized empirical matching at paper corpus scale, isolated
# artifact decode), exported to BENCH_frontend.json with derived
# seed-vs-optimized speedups, pool utilizations, and
# decode_ns_per_artifact.
bench-frontend:
	$(BENCH_ENV) $(GO) test -run xxx \
		-bench 'BenchmarkParseAll|BenchmarkCompileTemplates|BenchmarkValidateConfigs|BenchmarkDecodeArtifact' -benchtime 5x .

# Resilient-exec benchmark under the standard chaos profile, exported to
# BENCH_chaos.json (exec p50/p99 latency, retry counts, faults delivered).
bench-chaos:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench BenchmarkChaosExec -benchtime 2s .

# Fleet benchmark, exported to BENCH_reconcile.json (cycle and probe
# latencies, probe throughput, cache-hit ratio, fleet health).
bench-reconcile:
	$(BENCH_ENV) $(GO) test -run '^$$' -bench BenchmarkReconcileFleet -benchtime 5x .

# Serving benchmark (loadgen hosts the daemon in-process), exported to
# BENCH_serve.json (latency percentiles, sustained RPS, dedup economy,
# queue pressure). -check enforces the acceptance criterion: 8 concurrent
# identical requests -> exactly one pipeline execution, dedup hit ratio
# >= 0.8.
bench-loadgen:
	$(BENCH_ENV) $(GO) run ./cmd/loadgen -check

# Per-stage pipeline timing table + BENCH_telemetry.json (stage rows plus
# the metrics registry), plus the run manifest (see README Observability).
stages:
	$(BENCH_ENV) $(GO) run ./cmd/evalbench -stages -scale 0.1 -manifest-out $(BENCH_DIR)/RUN_MANIFEST.json

# Fuzzing under the race detector: coverage-guided mutations of real
# encoded artifacts must decode cleanly or be rejected with an error —
# never panic — at the stage-codec layer (FuzzArtifactCodecs) and the
# container layer (FuzzOpen); mutated paper-scale Huawei example lines
# must score the same under the dense CGM Specificity as under its
# map-frontier reference (FuzzSpecificity). The seed corpora also run in
# every plain `go test`.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -race -run '^$$' -fuzz FuzzArtifactCodecs -fuzztime $(FUZZTIME) ./internal/pipeline
	$(GO) test -race -run '^$$' -fuzz FuzzOpen -fuzztime $(FUZZTIME) ./internal/artifact
	$(GO) test -race -run '^$$' -fuzz FuzzSpecificity -fuzztime $(FUZZTIME) ./internal/cgm

# Chaos suite: fault injection, resilient client, breaker, and the
# end-to-end chaos assimilation tests, twice under the race detector, then
# bench-chaos.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Resilient|Breaker|Faultnet|Retry|Degrad' ./...
	$(MAKE) bench-chaos

# Reconciler suite: the fleet reconciler's drift, scenario, leak, and
# settled-dead tests under the race detector (including the 500-device
# acceptance run), then bench-reconcile.
reconcile:
	$(GO) test -race -run 'Reconcile|Fleet|Scenario|Drift|Dead|Settle' ./internal/reconciler ./internal/device .
	$(MAKE) bench-reconcile

# Run nassimd, the long-lived assimilation daemon (Ctrl-C drains).
serve:
	$(GO) run ./cmd/nassim serve

# Serving suite: the serve package's singleflight, admission, shutdown,
# and golden tests under the race detector, then bench-loadgen.
bench-serve:
	$(GO) test -race -count=1 ./internal/serve
	$(MAKE) bench-loadgen

# Regenerate every BENCH_*.json baseline into $(BENCH_DIR).
bench-all: bench-pipeline bench-mapper bench-frontend bench-chaos bench-reconcile bench-loadgen stages

# Regression gate: run bench-all into benchout/ and diff against the
# committed baselines (cmd/benchdiff exits non-zero on regression).
benchdiff:
	mkdir -p benchout
	$(MAKE) bench-all BENCH_DIR=benchout
	$(GO) run ./cmd/benchdiff -baseline . -current benchout
