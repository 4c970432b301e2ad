# Convenience targets for the OFAR reproduction.

GO ?= go

.PHONY: all build test test-short test-race bench bench-json bench-h6 bench-h8 bench-compare golden-regen vet cover cover-check figures figures-h6 fuzz serve smoke-serve smoke-trace clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the parallel router engine (and everything else).
test-race:
	$(GO) test -race -short ./...

cover:
	$(GO) test -short -cover ./...

# Coverage floor over the internal packages (the simulation engine). The
# floor is the measured total at the time the gate was added, rounded down —
# raise it when coverage genuinely grows, never lower it to make a PR pass.
COVER_FLOOR ?= 74.0

cover-check:
	$(GO) test -short -coverprofile=$(or $(TMPDIR),/tmp)/cover_internal.out ./internal/...
	@total=$$($(GO) tool cover -func=$(or $(TMPDIR),/tmp)/cover_internal.out | awk '/^total:/ {sub(/%/,"",$$NF); print $$NF}'); \
	echo "internal/... coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

bench:
	$(GO) test -bench . -benchmem .

# Machine-readable Step benchmarks (name, ns/op, allocs/op) across the load
# range, scheduler on/off, serial and pooled (4 and 8 workers), plus the
# isolated pool-dispatch barrier cost — the tracked perf baseline of the
# activity scheduler and the worker pool. -count 3 with benchjson's
# min-fold absorbs shared-machine noise (single runs swing ±10%). Compare
# against the committed BENCH_step.json.
BENCH_TIME ?= 1s
BENCH_COUNT ?= 3
# The full matrix at default settings runs well past go test's 10-minute
# default; a timeout mid-pipe truncates the JSON silently (benchjson drops
# the panic dump as non-bench lines), so give the binary explicit headroom.
BENCH_TIMEOUT ?= 40m

bench-json:
	$(GO) test ./internal/network -run '^$$' -bench 'StepByLoad|StepPhases|NetworkStep|PoolDispatch|Snapshot' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -timeout $(BENCH_TIMEOUT) \
		| $(GO) run ./cmd/benchjson -phases \
		-note "Snapshot* rows are the checkpoint layer: encode/restore a warm h=3 image (~0.7 MB) in ~3 ms, full Fork ~9 ms — the fixed cost each warm-fork sweep point pays." \
		-note "warm-cache sweep speedup: sweep -h 3 -points 5 -warmup 3000 -measure 1000 with -checkpoint/-restore dropped 1.43 s -> 0.53 s (~2.7x) on the second invocation, restoring all 5 points and skipping 15000 warmup cycles; CSV rows bit-identical (TestWarmCacheSweep)." \
		-note "h6 rows are the full-scale regime (876 routers): inline (serial rows) vs a 4-worker pool (shard4 rows) through the production cutover (on a single-P host both run inline; on multicore the shard4 rows dispatch whole groups to the pool, bit-identically — TestH6ShardedSmoke). The group-sharding change cut the saturated (load=0.90) h=6 serial step from 6.84 ms (min of 3, previous engine on this machine) to 4.35-4.9 ms (~1.5x on the min-fold) via per-group SoA arenas, block-carved packet allocation, the Cycle head/arbiter prefetch pass and an event-loop lookahead (since removed: no measurable gain in a later A/B)." \
		-note "h8 rows are the stretch regime the sharded injection front-end opened (a=16, 129 groups, 2064 routers, 16512 nodes): load edges only, 500-cycle warm-up — a cost tracker, not the paper protocol. StepPhases rows carry the per-phase breakdown (see the phases map); the host block records the machine shape the numbers were taken on." \
		-note "injection-shard no-regression check: interleaved same-day A/B of the pre-shard engine vs this one on h6/load=0.90/serial (8 samples each, 1s benchtime) gave old min 4.78 ms / new min 4.87 ms with overlapping spreads and a slightly better new-engine mean — parity within this box's ±8% noise; bytes/op rose ~2 KB from the per-group packet pools (allocs/op unchanged at 6)." \
		> BENCH_step.json
	@cat BENCH_step.json

# Full-scale h=6 Step rows only (876 routers; inline vs a 4-worker pool):
# the headline numbers of the group-sharded engine and the default figure
# regime. Warm-up dominates (2000 full-size cycles per row).
bench-h6:
	$(GO) test ./internal/network -run '^$$' -bench 'StepByLoad/h6' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -timeout $(BENCH_TIMEOUT)

# Stretch-regime h=8 Step rows (a=16, 129 groups, 2064 routers, 16512 nodes;
# inline vs a 4-worker pool): the regime the pooled injection front-end
# opened. Load edges only — see BenchmarkStepByLoad for why.
bench-h8:
	$(GO) test ./internal/network -run '^$$' -bench 'StepByLoad/h8' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -timeout $(BENCH_TIMEOUT)

# Rebuild every golden trace fixture (testdata/golden_*.json) from the
# inline run. Run after a deliberate physics change — e.g. a new RNG
# derivation order — then inspect the diff; the other execution variants
# still compare against the rewritten file in the same run, so a divergence
# between them fails even while regenerating.
golden-regen:
	$(GO) test ./internal/network -run TestGoldenTrace -update-golden -count=1

# Informational perf diff against the committed baseline: rerun the tracked
# Step benchmarks to a temp file and print per-row ns/op deltas versus
# BENCH_step.json. Never gates a build — timing on shared machines is
# advisory (override BENCH_TIME/BENCH_COUNT for a quicker, noisier pass).
bench-compare:
	$(GO) test ./internal/network -run '^$$' -bench 'StepByLoad|StepPhases|NetworkStep|PoolDispatch|Snapshot' -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -timeout $(BENCH_TIMEOUT) \
		| $(GO) run ./cmd/benchjson -phases > $(or $(TMPDIR),/tmp)/bench_fresh.json
	$(GO) run ./cmd/benchcmp BENCH_step.json $(or $(TMPDIR),/tmp)/bench_fresh.json

# Regenerate every paper figure at laptop scale (h=3) with SVG charts.
figures:
	$(GO) run ./cmd/experiments -fig all -h 3 -points 8 -svg figures | tee experiments_h3.txt

# Paper-scale (h=6, 5256 nodes) headline figure — the routine regime since
# the group-sharded Step; -workers runs each network's groups on a worker
# pool on multicore hosts (bit-identical results either way).
figures-h6:
	$(GO) run ./cmd/experiments -fig fig5 -h 6 -points 6 -workers 4

# Run the sweep service: HTTP/JSON experiment requests with a
# determinism-backed result cache (see docs/ARCHITECTURE.md "The sweep
# service"). SWEEPD_DIR persists results + warm snapshots across restarts.
SWEEPD_DIR ?= ./sweepd-cache
serve:
	$(GO) run ./cmd/sweepd -addr :8080 -disk $(SWEEPD_DIR)

# Service smoke: the end-to-end server tests — cold sweep matches
# RunLoadSweepOpt byte-for-byte, repeated request is served from cache with
# no simulation, concurrent identical requests coalesce onto one simulation,
# overload sheds 429.
smoke-serve:
	$(GO) test -run 'TestServer|TestConcurrentIdentical|TestOverload|TestDiskPersistence' -v ./internal/service

# Trace record/replay smoke: record a run's generated packets with ofarsim
# -trace-out, replay the file with -trace-in, and require the two grant
# digests to match bit for bit (the tentpole determinism claim, end to end
# through the CLI).
smoke-trace:
	$(GO) build -o $(or $(TMPDIR),/tmp)/ofarsim-smoke ./cmd/ofarsim
	$(or $(TMPDIR),/tmp)/ofarsim-smoke -h 2 -routing OFAR -pattern ADV+1 -load 0.4 \
		-warmup 500 -measure 1000 -trace-out $(or $(TMPDIR),/tmp)/smoke.trace -q \
		| tee $(or $(TMPDIR),/tmp)/smoke_record.txt
	$(or $(TMPDIR),/tmp)/ofarsim-smoke -h 2 -trace-in $(or $(TMPDIR),/tmp)/smoke.trace \
		-warmup 500 -measure 1000 -q | tee $(or $(TMPDIR),/tmp)/smoke_replay.txt
	@rec=$$(grep 'grant digest' $(or $(TMPDIR),/tmp)/smoke_record.txt); \
	rep=$$(grep 'grant digest' $(or $(TMPDIR),/tmp)/smoke_replay.txt); \
	echo "record: $$rec"; echo "replay: $$rep"; \
	[ -n "$$rec" ] && [ "$$rec" = "$$rep" ] || { echo "trace replay digest mismatch"; exit 1; }

# Every fuzz target, as PACKAGE:TARGET — the one list both `make fuzz` and
# CI's fuzz smoke run. Go allows one -fuzz target per invocation, so each
# runs FUZZTIME of real exploration on its own (plain `go test` only replays
# the seed corpora).
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	.:FuzzParsePattern \
	.:FuzzParallelConservation \
	.:FuzzConfigFromJSON \
	.:FuzzFaultSchedule \
	.:FuzzRouteCache \
	./internal/network:FuzzSnapshotRoundTrip \
	./internal/service:FuzzResolveRequest \
	./internal/topology:FuzzTopologyInvariants \
	./internal/trace:FuzzTraceRoundTrip

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run=NONE -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) $$pkg; \
	done

clean:
	rm -rf figures test_output.txt bench_output.txt
