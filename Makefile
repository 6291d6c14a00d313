GO ?= go

.PHONY: all build vet test race check lint lint-graph lint-report panicgate baseline obs-check serve-check durable-check cluster-check chaos-check obs-fleet-check load-check bench fuzz

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the full remedylint suite (see cmd/remedylint): the
# machine-checked form of the repo's correctness contracts, including
# the interprocedural concurrency/durability analyzers (lockorder,
# heldcall, goroleak, journalgate). New findings fail; sanctioned
# exceptions carry //lint:allow comments (the baseline is empty).
# -timings prints per-analyzer wall-clock cost so regressions in the
# analysis itself are visible.
lint:
	$(GO) run ./cmd/remedylint -timings ./...

# lint-graph dumps the interprocedural evidence the concurrency
# analyzers reason from: the call-graph summary, every lock class, and
# the observed lock-order edges with witness sites.
lint-graph:
	$(GO) run ./cmd/remedylint -graph ./...

# panicgate is the narrow no-panic gate (a remedylint subset kept as
# its own target for habit and for fast pre-commit runs). The library's
# error contract is sentinel errors and context cancellation; panics
# are reserved for tests.
panicgate:
	$(GO) run ./cmd/remedylint -analyzers panicgate ./...

# baseline regenerates .remedylint-baseline.json from current findings.
# Only for deliberately grandfathering new debt; prefer fixing or
# //lint:allow-ing findings instead.
baseline:
	$(GO) run ./cmd/remedylint -write-baseline ./...

# lint-report refreshes the committed machine-readable report, the
# artifact format downstream tooling consumes.
lint-report:
	$(GO) run ./cmd/remedylint -json ./... > remedylint-report.json

# obs-check vets and race-tests the observability layer in isolation:
# its lock-free counters and span bookkeeping are the code most likely
# to regress under concurrency, so they get a dedicated fast gate.
obs-check:
	$(GO) vet ./internal/obs/...
	$(GO) test -race ./internal/obs/...

# serve-check vets and race-tests the remedyd service layer (registry,
# job engine, handlers, client) and the binary's end-to-end test: the
# worker pool, cancellation, and shutdown paths are all
# concurrency-sensitive, so they run under the race detector on every
# check.
serve-check:
	$(GO) vet ./internal/serve/... ./cmd/remedyd/...
	$(GO) test -race ./internal/serve/... ./cmd/remedyd/...

# durable-check gates the crash-safety layer: the journal/spill
# package's unit and fuzz-seed tests, and the serve-level chaos tests
# (crash mid-identify, crash mid-remedy, recovery budgets), all under
# the race detector. These are the tests that catch a lost or
# duplicated job.
durable-check:
	$(GO) vet ./internal/durable/...
	$(GO) test -race ./internal/durable/...
	$(GO) test -race -count=1 -run 'Durable|Crash|Recovery|Restart|Retry|Circuit' \
	    ./internal/serve/ ./cmd/remedyd/

# cluster-check gates the fleet layer: replication, rank-ordered
# leader promotion, term fencing, dataset sharding, and work stealing,
# all under the race detector — headlined by the chaos failover test
# (leader killed mid-identify via the fault registry; the fleet's IBS
# must be byte-identical to a single-node run, with the job completing
# exactly once and no goroutine leaked after drain) and the cmd-level
# two-real-nodes-over-TCP failover test.
cluster-check:
	$(GO) vet ./internal/cluster/...
	$(GO) test -race -count=1 ./internal/cluster/
	$(GO) test -race -count=1 -run 'Cluster' ./cmd/remedyd/

# chaos-check gates the fault-injection suite under the race
# detector: the in-process kill-switch chaos tests (leader killed
# mid-append) plus the network-fault layer's tests — deterministic
# drop/dup/delay/partition schedules, symmetric partition → heal →
# byte-identical journals, asymmetric partition during a steal,
# compaction racing replication, and the headline live-rejoin test (a
# deposed node behind the compaction horizon rejoins through a lossy
# link via snapshot install, no restart, fleet IBS byte-identical to a
# single-node run).
chaos-check:
	$(GO) test -race -count=1 ./internal/faults/
	$(GO) test -race -count=1 -run 'Chaos|Deposed|NetFaults' \
	    ./internal/cluster/ ./internal/serve/

# obs-fleet-check gates fleet observability: a three-node fleet steals
# a job and the test asserts the leader's stitched trace carries spans
# from every participating node ID under a deterministic trace ID, and
# that /metrics/fleet's merged counters equal the sum of the per-node
# registries — plus the lag/event-log surfaces — all under the race
# detector.
obs-fleet-check:
	$(GO) test -race -count=1 -run 'ObsFleet' ./internal/cluster/

# load-check gates the load harness and the multi-tenant admission
# layer under the race detector: deficit-round-robin fairness (no
# starvation, shares within 20% of weights), per-tenant quotas and
# derived Retry-After, response-cache byte-identity, and the harness's
# own acceptance test — two same-seed runs against fresh servers must
# produce byte-identical deterministic reports with zero jobs lost or
# duplicated and at least one cache hit.
load-check:
	$(GO) vet ./internal/load/... ./cmd/remedyload/...
	$(GO) test -race -count=1 ./internal/load/ ./cmd/remedyload/
	$(GO) test -race -count=1 \
	    -run 'FairQueue|RetryAfter|Tenant|Cache|ClientRetry' ./internal/serve/

# bench regenerates the committed BENCH_*.json perf artifact (see
# EXPERIMENTS.md "Benchmark trajectory"). Usage: make bench OUT=BENCH_7.json
OUT ?= BENCH_dev.json
bench:
	sh scripts/bench.sh $(OUT)

# fuzz runs every fuzz target in turn: the CSV reader and the journal
# replay longest, the other four briefly.
fuzz:
	$(GO) test ./internal/dataset/ -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/durable/ -fuzz FuzzJournalReplay -fuzztime 30s
	$(GO) test ./internal/durable/ -fuzz FuzzSnapshotDecode -fuzztime 10s
	$(GO) test ./internal/dataset/ -fuzz FuzzBucketize -fuzztime 10s
	$(GO) test ./internal/pattern/ -fuzz FuzzKeyRoundTrip -fuzztime 10s
	$(GO) test ./internal/pattern/ -fuzz FuzzDominanceConsistency -fuzztime 10s

check: build vet lint obs-check serve-check durable-check cluster-check chaos-check obs-fleet-check load-check race
	@echo "all checks passed"
