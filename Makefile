# Development entry points. `make check` is the full verification
# recipe: build everything, vet, and run the test suite under the race
# detector.

GO ?= go

# Committed benchmark baseline for the regression gate (see
# cmd/benchjson and DESIGN.md §9). BENCH_6 adds the decision-log
# paired benchmarks (hot path with/without auditing, DESIGN.md §16).
BENCH_SNAPSHOT ?= BENCH_6.json

.PHONY: check build vet test race bench bench-compare report fuzz-smoke chaos examples cover blame watch attack scale scale-sweep why

check: build vet race examples blame watch attack scale scale-sweep why

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The expensive experiments.All determinism sweep skips under -short;
# the race job still covers the per-figure determinism subtests.
race:
	$(GO) test -race -short ./...

# Benchmark snapshot: the per-figure evaluation benchmarks (root
# package) plus the engine microbenchmarks, captured as JSON for the
# regression gate.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./... > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_SNAPSHOT) < bench.out
	@rm -f bench.out

# Regression gate: measure a fresh snapshot and compare it against the
# committed baseline with a ±15% tolerance. allocs/op is gated on every
# host; ns/op only when the host metadata matches the baseline's.
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem ./... > bench.new.out || { cat bench.new.out; rm -f bench.new.out; exit 1; }
	@cat bench.new.out
	$(GO) run ./cmd/benchjson -o bench.new.json < bench.new.out
	$(GO) run ./cmd/benchjson -compare -tolerance 0.15 $(BENCH_SNAPSHOT) bench.new.json
	@rm -f bench.new.out bench.new.json

# Latency blame attribution smoke run: per-strategy p50/p99/p99.9
# category breakdowns plus the slowest requests' critical paths.
blame:
	$(GO) run ./cmd/irsblame -strategy vanilla,irs -duration 500ms -top 3

# Online SLO watchdog smoke run: the bully rig must page within one
# slow window and attribution must rank the bully first. The incident
# bundle (JSON + Perfetto trace) lands next to the repo root.
watch:
	$(GO) run ./cmd/irswatch -scenario bully -expect-top bully -dump incident

# Telemetry smoke run: summary + all three exports for vanilla vs IRS.
report:
	$(GO) run ./cmd/irsreport -bench streamcluster -strategy vanilla,irs -inter 1

# Short fuzz pass over the committed seed corpora plus a few seconds of
# fresh exploration per target.
fuzz-smoke:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzEventHeapOrdering -fuzztime 5s
	$(GO) test ./internal/fault -run '^$$' -fuzz FuzzParsePlan -fuzztime 5s
	$(GO) test ./internal/watch -run '^$$' -fuzz FuzzParseRule -fuzztime 5s
	$(GO) test ./internal/workload -run '^$$' -fuzz FuzzParseAttack -fuzztime 5s
	$(GO) test ./internal/topology -run '^$$' -fuzz FuzzParseLoadSpec -fuzztime 5s
	$(GO) test ./internal/decision -run '^$$' -fuzz FuzzParseQuery -fuzztime 5s

# Adversarial-tenant smoke run: the tick-evader vs every accounting
# defense; the gate fails unless jittered ticks + exact accounting
# together hold the attacker within 5% of its fair share.
attack:
	$(GO) run ./cmd/irsim -attack tick-evade -expect-overshoot 1.05

# Robustness sweep: fault rates vs strategies with invariant audits.
chaos:
	$(GO) run ./cmd/irsim -runs 1 chaos

# Sharded-simulation gate: the window coordinator and the cluster must
# be data-race free, and the simulation must be byte-identical whatever
# order each window's shards run in (DESIGN.md §14).
scale:
	$(GO) test -race ./internal/sim ./internal/cluster
	$(GO) test ./internal/sim -run TestShardedExecutionOrderInvisible -v

# Multi-rack control-plane smoke run: the 2-zone × 8-host acceptance
# rig with a zone outage mid-ramp. The gate fails unless the router
# fails over, every request is conserved, the invariants stay clean,
# and the post-recovery SLO-violation rate is below 1%.
scale-sweep:
	$(GO) run ./cmd/irsload -variant 2z8h-outage -expect 1.0

# Decision-provenance smoke run: replay the outage rig with the audit
# log attached and gate on the exact decision trail (cordon, the first
# failover route, +2 replicas, then the two drains). The full log lands
# next to the repo root as decisions.json, and as a Perfetto trace in
# decisions.trace.json.
why:
	$(GO) run ./cmd/irswhy -expect cordon,failover,scale-up,scale-up,drain,drain -json decisions.json -perfetto decisions.trace.json

# Compile and run every example end to end (each also has a unit test
# exercising its run() body, picked up by `make test`).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/server
	$(GO) run ./examples/parsec
	$(GO) run ./examples/stacking

# Coverage gate: statement coverage over internal/ must stay at or
# above COVER_MIN (baseline measured at ~91%).
COVER_MIN ?= 85.0

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/... ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	 rm -f cover.out; \
	 awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
	   if (t+0 < min+0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, min; exit 1 } \
	   printf "OK: coverage %.1f%% >= floor %.1f%%\n", t, min }'
