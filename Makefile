GO ?= go

.PHONY: build test fmt vet lint test-analysis race race-fleet perfbench-smoke check bench bench-sparse bench-dual bench-benders serve-test bench-serve bench-fleet fuzz-lp fuzz-dp fuzz-fleet fuzz-nested fuzz-srrp-cap fuzz-exec

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# gofmt must list no file; formatting drift fails the check gate.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# rentlint is the in-tree solver-aware analysis suite (see cmd/rentlint):
# all ten analyzers over the whole module, including staleignore, which
# audits the //lint:ignore directives themselves. It exits 1 on any
# unsuppressed finding, failing the check gate.
lint:
	$(GO) run ./cmd/rentlint ./...

# The analyzer suite re-type-checks the module and the corpus from source,
# which is the slowest test surface in the repo; the explicit -timeout is a
# budget, so a CFG or fixpoint regression that loops shows up as a timeout
# here instead of hanging the whole test job.
test-analysis:
	$(GO) test -timeout 120s ./internal/analysis/... ./cmd/rentlint/...

# The parallel branch-and-bound solver shares state across workers; always
# race-check it (and everything else) before shipping.
race:
	$(GO) test -race ./...

# Fleet shard workers run concurrently, each accumulating into its own
# range of one shared result; repeat the package under the race detector
# so a rarely interleaved race, or a worker that hangs, shows up.
race-fleet:
	$(GO) test -race -count=10 -timeout 300s ./internal/fleet

# perfbench is a module of its own (replace rentplan => ../), so the root
# build, vet and test never compile it; vet it and run its smoke tests so an
# API change that breaks the benchmark fails here rather than at its run.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

check: fmt vet lint test-analysis race

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Smoke-run the sparse-core benchmarks: the 5-stage SRRP LP relaxation under
# candidate-list vs full pricing, both over the same sparse basis factors and
# eta file (objectives cross-checked in-bench), plus model-build allocations.
bench-sparse:
	$(GO) test -run '^$$' -bench 'BenchmarkSparseVsDenseSRRP|BenchmarkSRRPModelBuild' -benchtime 1x .

# Smoke-run the dual-simplex warm re-solve benchmark (branching children of
# the bench-sparse instance, dual vs primal-repair vs cold); baselines in
# BENCH_dual.json. The benchmark itself enforces the >= 2x iteration
# reduction acceptance threshold.
bench-dual:
	$(GO) test -run '^$$' -bench 'BenchmarkDualVsColdSRRP' -benchtime 1x .

# Smoke-run the parallel nested L-shaped benchmark (8-stage/branch-3 tree,
# serial cold baseline vs memo + warehouse + dual-warm re-solves); baselines
# in BENCH_benders.json. The benchmark enforces the >= 3x wall-clock speedup
# acceptance threshold and the 1e-6 relative bound agreement itself, and
# prints the measured ratio as warehouse-warm's speedup_vs_serial_cold.
bench-benders:
	$(GO) test -run '^$$' -bench 'BenchmarkBendersNestedParallel' -benchtime 1x .

# Fuzz lp against the exact big.Rat simplex of internal/lp/oracle_test.go for
# a fixed budget: cold solves under both pricing modes, SolveFrom a random
# nonsingular basis, and a warm re-solve after a bound change must all match
# the oracle's status and optimum. A failing input is written to
# internal/lp/testdata/fuzz and replays in every later go test run.
fuzz-lp:
	$(GO) test -run '^$$' -fuzz '^FuzzLPOracle$$' -fuzztime 20s ./internal/lp

# Fuzz the tree lot-sizing DP against the map-memoised DP it replaced
# (internal/lotsize/tree_ref_test.go) for a fixed budget: on every decoded
# tree SolveTree must not panic, must fail whenever validation rejects the
# problem, and must otherwise match the reference bit for bit. A failing
# input is written to internal/lotsize/testdata/fuzz and replays in every
# later go test run.
fuzz-dp:
	$(GO) test -run '^$$' -fuzz '^FuzzTreeDP$$' -fuzztime 20s ./internal/lotsize

# Fuzz the fleet's lite engine against the slot-polling oracle for a fixed
# budget: on every decoded run (up to 64 ASPs, 200-slot epochs, 3 epochs,
# bids on and one ULP beside the price levels) Run and RunPolling must both
# fail whenever validation rejects the config, and must otherwise fail
# alike or agree exactly on every integer counter and epoch report and to
# 1e-9 on costs, with shard counts 1 to 4 bit-identical. Then fuzz the
# engine's price-level bucket index against the binary search for the same
# budget: on every decoded set of up to 64 finite levels (duplicates,
# one-ULP steps, extreme and subnormal magnitudes) the lookup must count
# exactly the levels at or below each decoded bid, each level and one ULP
# to either side, without a panic. A failing input is written to
# internal/fleet/testdata/fuzz and replays in every later go test run.
fuzz-fleet:
	$(GO) test -run '^$$' -fuzz '^FuzzFleetMatchesPolling$$' -fuzztime 20s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzLevelIndex$$' -fuzztime 20s ./internal/fleet

# Fuzz the nested L-shaped solver against the extensive-form LP for a fixed
# budget: every decoded tree (up to 300 vertices, 1 to 5 stages, 1 to 3
# children per vertex, sibling probabilities up to six decades apart) must
# converge, with a bound within 1e-6 relative of the extensive optimum. A
# failing input is written to internal/benders/testdata/fuzz and replays in
# every later go test run.
fuzz-nested:
	$(GO) test -run '^$$' -fuzz '^FuzzNestedMatchesExtensive$$' -fuzztime 20s ./internal/benders

# Fuzz capacitated SRRP against its MILP for a fixed budget: on every
# decoded instance (trees of 1 to 4 stages and 1 to 3 children per vertex,
# at most 40 vertices; capacities slack, tight, mixed or 0 at a stage)
# whose serial cold branch-and-bound reference is proven optimal or
# infeasible, SolveSRRP must reach the same verdict and cost to 1e-7
# relative; a plan the tree DP answered must fit every capacity exactly
# and balance at every vertex, and where a capacity binds at the
# uncapacitated optimum the plan must equal the MILP path's bit for bit.
# A failing input is written to internal/core/testdata/fuzz and replays in
# every later go test run.
fuzz-srrp-cap:
	$(GO) test -run '^$$' -fuzz '^FuzzCapacitatedSRRPMatchesMILP$$' -fuzztime 20s ./internal/core

# Fuzz the rolling-horizon executor for a fixed budget: on every decoded
# uncapacitated run (up to 48 slots of price, bid and demand, lookahead 0
# to 4, branch cap 1 to 4, stride 1 to 8, budgeted or not) a replay from
# PlanStochasticStepCtx and Follow alone must reproduce RunStochastic bit
# for bit, a stride past TreeStages+1 must run as TreeStages+1, the events
# executor must run as stride TreeStages+1 when the bids never cross the
# price, and every cost must be finite and non-negative. A failing input
# is written to internal/core/testdata/fuzz and replays in every later go
# test run.
fuzz-exec:
	$(GO) test -run '^$$' -fuzz '^FuzzRollingExecutor$$' -fuzztime 20s ./internal/core

# The rentpland daemon stack under the race detector: handler and
# reentrancy suites (bit-identical concurrent-vs-serial objectives, zero
# cross-tenant bleed) plus the loadtest smoke fleet.
serve-test:
	$(GO) test -race ./internal/serve/... ./cmd/rentpland/

# The rentpland load benchmark: >= 1000 concurrent synthetic tenant plan
# requests through the in-process daemon, recording p50/p99 latency and
# plans/sec into BENCH_serve.json.
bench-serve:
	BENCH_SERVE_OUT=$(CURDIR)/BENCH_serve.json $(GO) test -run '^$$' -bench 'BenchmarkServeLoad' -benchtime 1x ./internal/serve/loadtest/

# The fleet simulator benchmark: a 100k-ASP population over 16 week-long
# market epochs, the sharded lite engine (each ASP's epoch settled in O(1)
# from per-price-level tables) vs the naive slot-polling walk. The
# benchmark enforces the >= 10x ASP-slots/sec speedup acceptance gate and
# shard-count {1,4,8} bit-identity itself; p50 epoch latency and
# ASP-slots/sec are recorded into BENCH_fleet.json.
bench-fleet:
	BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchtime 1x .
