# Convenience targets for the multi-path transfer reproduction.

GO ?= go

.PHONY: build test race vet lint lint-wire bench bench-planner bench-faults bench-graphs bench-obs bench-shard bench-serve verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint builds and runs mplint, the repo's own analyzer suite (determinism,
# unit-safety, wire-contract freeze, concurrency invariants). It must stay
# clean: suppress a knowingly-safe finding with
# "//lint:allow <analyzer> <reason>". The run also writes mplint.sarif so
# CI can archive the machine-readable report (suppressions included).
lint:
	$(GO) build -o bin/mplint ./cmd/mplint
	./bin/mplint -sarif mplint.sarif ./...

# lint-wire checks only the frozen serve/v1 wire contract against its
# checked-in v1.lock.json. After an intentional wire change, refreeze with
# `./bin/mplint -update-wire-lock ./internal/serve/v1` and review the lock
# diff as part of the change.
lint-wire:
	$(GO) build -o bin/mplint ./cmd/mplint
	./bin/mplint -run wirefreeze ./internal/serve/v1

# verify is the gate every change should pass: vet + build + tests + the
# race detector (the parallel experiment runner's worker pools make -race
# load-bearing, not optional).
verify:
	sh scripts/verify.sh

# bench runs the perf-trajectory benchmarks recorded in BENCH_fluid.json,
# plus the allocation profile of one eager staged transfer and one graph
# replay (the transfer hot path's records, flows and events).
bench:
	$(GO) test -bench 'BenchmarkFluidChurn|BenchmarkFlowChurn|BenchmarkFluidReallocateOnly' -benchmem -run xxx ./internal/fluid/
	$(GO) test -bench 'BenchmarkScheduleRun|BenchmarkCancelRescheduleChurn' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench 'BenchmarkEagerStagedTransfer|BenchmarkGraphReplay' -benchmem -run xxx ./internal/pipeline/
	$(GO) test -bench 'BenchmarkParallelSweep' -run xxx .

# bench-planner measures the planning hot path (sharded plan cache) and
# regenerates BENCH_planner.json: microbenchmarks of the hit path vs the
# seed string-key design, then the concurrent throughput sweep.
bench-planner:
	$(GO) test -bench 'BenchmarkPlanCacheHit' -benchmem -run xxx .
	$(GO) run ./cmd/mpbench -exp plancache -planner-json BENCH_planner.json

# bench-faults runs the fault-adaptation sweep (mid-transfer link
# degradation and permanent failure, adaptive runtime vs plan-once
# baseline) and regenerates BENCH_faults.json.
bench-faults:
	$(GO) run ./cmd/mpbench -exp faults -faults-json BENCH_faults.json

# bench-graphs compares the eager (interpreted) engine against compiled
# transfer-graph replay over sizes x windows x clusters and regenerates
# BENCH_graphs.json, including the O(1) launch-cost ladder.
bench-graphs:
	$(GO) run ./cmd/mpbench -exp graphs -clusters beluga,narval -windows 1,16 -iters 3 -graphs-json BENCH_graphs.json

# bench-obs measures the observability layer's cost (the same Put workload
# with UCX_MP_TRACE off vs on) and regenerates BENCH_obs.json, plus the
# hot-path microbenchmarks the disabled-overhead budget is gated on.
bench-obs:
	$(GO) test -bench 'BenchmarkPlanCacheHit$$' -benchmem -run xxx .
	$(GO) test -bench 'BenchmarkFluidChurn' -benchmem -run xxx ./internal/fluid/
	$(GO) run ./cmd/mpbench -exp obs -clusters beluga,narval -obs-json BENCH_obs.json

# bench-shard measures the sharded parallel engine against the fused
# sequential baseline on an 8-node fleet, plus the single-component
# overhead ladder (shards 1/2/8 vs the plain engine), and regenerates
# BENCH_shard.json. Checksums across all configurations are asserted
# equal — the run fails on any determinism violation.
bench-shard:
	$(GO) run ./cmd/mpbench -exp shard -shard-json BENCH_shard.json

# bench-serve load-tests the mpserve daemon stack (registry + v1 HTTP API
# + TCP fast path) over real loopback sockets — >=1M mixed-size plan
# queries across two registered clusters — and regenerates
# BENCH_serve.json with plans/sec and latency percentiles per wire
# series, including the batch-vs-single speedup at batch size 1024.
bench-serve:
	$(GO) run ./cmd/mpbench -exp serve -serve-json BENCH_serve.json
