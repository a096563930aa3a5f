#!/usr/bin/env sh
# verify.sh — the repo's tier-1 gate plus race checking for the parallel
# experiment runner. Run from the repository root (or via `make verify`).
set -eu

echo "==> gofmt -l"
fmt_out=$(gofmt -l .)
if [ -n "$fmt_out" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$fmt_out" >&2
	exit 1
fi

echo "==> mplint ./..."
go build -o bin/mplint ./cmd/mplint
./bin/mplint -sarif mplint.sarif ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

# The benchmark is its own module, so ./... above does not reach it. Its
# tests pin the transfers golden window (checksum, link bytes, retries,
# failovers, refits) and the figs tables byte for byte: a change that
# moves one completion-time bit fails here rather than only in the
# benchmark.
echo "==> (cd mpperf && go test ./...)"
(cd mpperf && go test ./...)

# The planner is the concurrency-critical surface: rerun its stress gates
# with more iterations than the default suite so interleavings that only
# show up under repetition get a chance to fire. The core.Cache tests
# cover the one cache behind plans and compiled graphs; exp's planner
# cache shares one static tuning between concurrent panels; the static
# tuner runs its per-size branch-and-bound searches on concurrent workers.
echo "==> go test -race -count=3 (plan-cache + shared-planner + static tuning stress)"
go test -race -count=3 \
	-run 'TestPlanCacheConcurrentStress|TestPlanCacheSingleflight|TestCache|TestContextConcurrentPlanning|TestStaticPlannerConcurrentReplay|TestGraphCacheSingleflightRace|TestPlannerCacheSingleFlight|TestStaticPlannerParallelMatchesSequential' \
	./internal/core/ ./internal/ucx/ ./internal/tuner/ ./internal/exp/

# The fault-adaptive runtime (failover, chunk-pool feeders, fault
# injection) mixes simulator callbacks with concurrent planners; rerun its
# stress tests, and the executor golden that pins every execution mode
# under faults, under the race detector the same way.
echo "==> go test -race -count=3 (fault / failover stress)"
go test -race -count=3 \
	-run 'TestFailover|TestFault|TestAdaptiveSegments|TestTransferSurvives|TestExecutorGolden' \
	./internal/ucx/ ./internal/fluid/ ./internal/hw/ ./internal/exp/ .

# The observability layer records metrics from concurrent planners; rerun
# its concurrent-recording stress under the race detector like the others.
echo "==> go test -race -count=3 (obs metrics stress)"
go test -race -count=3 \
	-run 'TestMetricsConcurrentRecording|TestTracer' \
	./internal/obs/

# Independent fleets run on one simulator per node, fanned across
# workers: a component's bits must not depend on which simulator or how
# many workers run it. Rerun that identity under the race detector.
echo "==> go test -race -count=3 (per-component simulators)"
go test -race -count=3 -run 'TestComponentsIndependentOfSimulator' ./internal/fluid/

# Serving stress: concurrent registry hot-reload during batch planning,
# and the metrics/histogram concurrency, under the race detector.
echo "==> go test -race -count=3 (serve hot-reload stress)"
go test -race -count=3 \
	-run 'TestHotReloadDuringBatchPlanning|TestTCPRoundTrip' \
	./internal/serve/

# The serve batch codec stands in for encoding/json on the batch hot path:
# run each differential fuzz target for a short fixed time. A crasher is
# written to internal/serve/testdata/fuzz/, where go test replays it as a
# regression seed once it is checked in.
echo "==> go test -fuzz (serve batch codec, 10 s per target)"
for target in FuzzDecodeBatch FuzzEncodeBatch; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/serve
done

# Topology documents cross the same trust boundary (PUT /v1/clusters):
# whatever SpecFromJSON accepts must build and plan without panicking. A
# crasher lands in internal/hw/testdata/fuzz/.
echo "==> go test -fuzz (topology JSON, 10 s)"
go test -run '^$' -fuzz '^FuzzSpecFromJSON$' -fuzztime 10s ./internal/hw

# Environment configuration is the third outside input: whatever
# ParseConfig accepts must give whole, finite thresholds and a usable
# Context.
echo "==> go test -fuzz (ucx env config, 10 s)"
go test -run '^$' -fuzz '^FuzzParseConfig$' -fuzztime 10s ./internal/ucx

# The figure contract: every printed table of the paper figures, the
# extensions and Observation 2 is byte-identical to its checked-in
# results file. The full grid fans over one worker per CPU.
echo "==> mpbench figure tables vs results_{full,ext,obs2}.txt"
go build -o bin/mpbench ./cmd/mpbench
./bin/mpbench -exp all -parallel | cmp - results_full.txt
./bin/mpbench -exp ext | cmp - results_ext.txt
./bin/mpbench -exp obs2 | cmp - results_obs2.txt

# Daemon smoke: start mpserve on a random port, round-trip one batch over
# the real binary's HTTP API, and check /v1/stats reports both clusters.
echo "==> mpserve smoke (daemon round trip)"
go build -o /tmp/mp_verify_mpserve ./cmd/mpserve
/tmp/mp_verify_mpserve -addr 127.0.0.1:0 > /tmp/mp_verify_mpserve.log &
MPSERVE_PID=$!
# set -e stays active inside the trap: every command must tolerate the
# daemon already being dead, or the trap's failure becomes the script's
# exit status after "verify: OK".
trap 'kill $MPSERVE_PID 2>/dev/null || true; rm -f /tmp/mp_verify_mpserve /tmp/mp_verify_mpserve.log' EXIT
ADDR=""
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's/^mpserve: http listening on //p' /tmp/mp_verify_mpserve.log)
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "mpserve did not report an address"; cat /tmp/mp_verify_mpserve.log; exit 1; }
BATCH=$(curl -sf "http://$ADDR/v1/batch" -d \
	'{"cluster":"beluga","items":[{"src":0,"dst":1,"bytes":67108864},{"cluster":"narval","src":1,"dst":2,"bytes":4194304}]}')
echo "$BATCH" | grep -q '"predicted_s"' || { echo "batch response missing predictions: $BATCH"; exit 1; }
echo "$BATCH" | grep -q '"failed"' && { echo "batch reported failures: $BATCH"; exit 1; }
STATS=$(curl -sf "http://$ADDR/v1/stats")
echo "$STATS" | grep -q '"beluga"' && echo "$STATS" | grep -q '"narval"' \
	|| { echo "stats missing clusters: $STATS"; exit 1; }
kill $MPSERVE_PID 2>/dev/null
wait $MPSERVE_PID 2>/dev/null || true

echo "verify: OK"
