# Convenience targets for the multi-path transfer reproduction.

GO ?= go

.PHONY: build test race vet lint lint-wire bench verify loc

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

# loc prints the non-test Go line count outside mpperf/ and testdata/ (and
# outside hidden build directories), the size ROADMAP tracks.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './mpperf/*' ! -path '*/testdata/*' ! -path './.*' | xargs cat | wc -l

# bench runs the perf-trajectory benchmarks recorded in BENCH_fluid.json,
# the allocation profile of one eager staged transfer and one graph replay
# (the transfer hot path's records, flows and events), and the plan-cache
# hit path (sharded cache, parallel, and the seed's string-key design).
# End-to-end numbers come from the mpperf benchmark (mpperf/README.md).
bench:
	$(GO) test -bench 'BenchmarkFluidChurn|BenchmarkFlowChurn|BenchmarkFluidReallocateOnly' -benchmem -run xxx ./internal/fluid/
	$(GO) test -bench 'BenchmarkScheduleRun|BenchmarkCancelRescheduleChurn' -benchmem -run xxx ./internal/sim/
	$(GO) test -bench 'BenchmarkEagerStagedTransfer|BenchmarkGraphReplay' -benchmem -run xxx ./internal/pipeline/
	$(GO) test -bench 'BenchmarkParallelSweep|BenchmarkPlanCacheHit' -benchmem -run xxx .
