# Build / test entry points. `make ci` is what the CI workflow runs: the
# race detector covers the run layer's worker pool and memoization, the
# bench smoke step compiles and runs every benchmark once, and the json
# check round-trips a -json results file through the schema validator.

GO ?= go

.PHONY: ci fmt vet build test race bench bench-smoke bench-json bench-json-store bench-json-fleet alloc-gate json-check experiments fuzz-smoke cover cover-gate telemetry-smoke explore-smoke mt-smoke fleet-check

ci: fmt vet build race bench-smoke alloc-gate json-check fuzz-smoke cover-gate telemetry-smoke explore-smoke mt-smoke fleet-check

# Every tracked Go file, perfbench's included, must be gofmt-clean;
# gofmt -l names the files that are not.
fmt:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# One iteration of every benchmark, no unit tests: catches benchmarks that
# no longer compile or crash without paying for real measurement.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .
	$(GO) test -bench=. -benchtime=100x -run='^$$' ./internal/pipeline

# The zero-allocation gates for the steady-state cycle loop (all schemes).
alloc-gate:
	$(GO) test -run='TestCycleLoopZeroAlloc' -count=1 -v ./internal/pipeline

# Measure the simulator performance trajectory and write it to
# BENCH_pipeline.json as a go-test JSON event stream: end-to-end throughput
# and the run layer from the root package, per-cycle and per-stage numbers
# from the pipeline package. Commit the refreshed file to record a
# baseline. Each trajectory file has its own target, so refreshing one
# never rewrites another.
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkSimulatorThroughput|BenchmarkRunnerColdSuite|BenchmarkIntervalThroughput' \
		-benchtime=3x -count=6 -benchmem -json . > BENCH_pipeline.json
	$(GO) test -run='^$$' -bench='BenchmarkCycleSteadyState|BenchmarkStageBreakdown' \
		-benchtime=100000x -count=6 -benchmem -json ./internal/pipeline >> BENCH_pipeline.json

# The durable-store path (append, lookup, warm restart through the
# runner), six samples of each so a comparison has a median and a spread.
bench-json-store:
	$(GO) test -run='^$$' -bench='BenchmarkStoreAppend|BenchmarkStoreLookup' \
		-benchtime=2000x -count=6 -benchmem -json . > BENCH_store.json
	$(GO) test -run='^$$' -bench='BenchmarkRunnerWarmStore' \
		-benchtime=10x -count=6 -benchmem -json . >> BENCH_store.json

# Fleet scatter/gather against a sleepy backend.
bench-json-fleet:
	$(GO) test -run='^$$' -bench='BenchmarkFleetScatterGather' \
		-benchtime=3x -count=6 -json ./internal/fleet > BENCH_fleet.json

# Run the 3-node cluster E2E with its merged document exported, then pin
# it to the exact requested matrix with checkresults: full scheme × bench
# coverage, no duplicate points (a hedge that raced its primary must not
# leak both copies), no runs outside the matrix.
FLEET_ARTIFACT ?= /tmp/regsim-fleet-merged.json

fleet-check:
	REGSIM_FLEET_ARTIFACT=$(FLEET_ARTIFACT) $(GO) test -count=1 -run 'TestClusterByteStable' ./internal/fleet
	$(GO) run ./cmd/checkresults -benches gzip,gcc,mcf,twolf \
		-schemes use-16x2-filtered,rf-3cyc $(FLEET_ARTIFACT)

# Emit a -json results file and validate it parses with the current schema.
json-check:
	$(GO) run ./cmd/regsim -bench gzip -n 20000 -json /tmp/regsim-ci.json > /dev/null
	$(GO) run ./cmd/checkresults /tmp/regsim-ci.json

experiments:
	$(GO) run ./cmd/experiments -quick -v

# End-to-end smoke of the telemetry plane against a live daemon: one
# traced sweep with a known X-Request-Id, then /metrics and /debug/flight
# validated through checkresults. Artifacts land in /tmp/telemetry-smoke
# (override with OUTDIR=).
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# End-to-end smoke of the design-space exploration engine: a 27-candidate
# successive-halving search through regsimc explore and the async job
# path, validated with checkresults -explore, then replayed warm (memo)
# and across a daemon restart (durable store) — both byte-identical with
# zero re-simulation. Artifacts land in /tmp/explore-smoke (OUTDIR=).
explore-smoke:
	./scripts/explore_smoke.sh

# End-to-end smoke of the multithreaded workload plane and port-filtering
# scheme family: a T=4 sweep mixing ported and unported schemes plus a
# ports x threads exploration through a live daemon, each validated with
# checkresults, replayed warm (memo) and across a daemon restart (durable
# store fingerprints) byte-identically with zero re-simulation.
# Artifacts land in /tmp/mt-smoke (OUTDIR=).
mt-smoke:
	./scripts/mt_smoke.sh

# Short coverage-guided fuzz runs of the generative and parsing surfaces:
# the ISA evaluators (arbitrary selectors/operands), the program generator
# (arbitrary profiles through generate -> validate -> execute, including
# the per-context ThreadProfile derivation), the durable store's record
# decoder (arbitrary segment bytes through the crash-recovery scanner),
# the explore-spec parser (ports/threads axes included), the compact
# scheme-spec grammar (port-filtering modifiers and kinds), the run
# options contract (accepted options run, rejected ones name a wire
# field), and the durable payload decoder (arbitrary bytes from disk or a
# fleet peer). The payload seeds are ~1.5 KB, where Go's byte minimizer
# is quadratic, so that target caps minimization at 100 runs. Regressions
# land as crashers here long before they corrupt a simulation. The
# committed corpora under testdata/fuzz/ replay on every plain `go test`
# run too.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzExec$$' -fuzztime=10s ./internal/isa
	$(GO) test -run='^$$' -fuzz='^FuzzProgramGenerate$$' -fuzztime=10s ./internal/prog
	$(GO) test -run='^$$' -fuzz='^FuzzStoreDecode$$' -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzExploreSpec$$' -fuzztime=10s ./internal/explore
	$(GO) test -run='^$$' -fuzz='^FuzzSchemeSpec$$' -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzOptions$$' -fuzztime=10s ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzStoredPayload$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/sim

# Whole-module statement coverage. The floor trails the measured baseline
# (81.9% when the exploration engine landed) by a small margin; raise it
# when coverage rises, never lower it to make a PR pass.
COVER_FLOOR ?= 81.5

cover:
	$(GO) test -count=1 -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-gate: cover
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'
