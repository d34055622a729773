# Build/verify entry points. `make ci` is the PR gate: vet + build + tests
# + the race detector over the concurrent pipeline, cache and daemon.

GO ?= go

.PHONY: all build vet lint test race fuzz bench bench-compare bench-ab check loadtest ci

all: build

build:
	$(GO) build ./...

# vet runs the toolchain's analyzers, then treegion-vet: the repo's own
# static-analysis suite over its determinism/atomicity/arena-escape/codec
# invariants (see internal/analysis and DESIGN.md §14). Any finding fails
# the target, and thereby lint, check and ci.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/treegion-vet ./...

# Static analysis: go vet + treegion-vet plus the schedule verifier over
# every example program, across all five region formers — once with calls
# as barriers, once with inline-on-absorb splicing them (the CL rules and
# call-executing SEM certification run in both passes).
lint: vet
	$(GO) run ./cmd/treegion-lint -region all testdata/fig1.tir examples/tir/*.tir
	$(GO) run ./cmd/treegion-lint -region all -inline examples/tir/*.tir

test:
	$(GO) test ./...

# The compilation service is concurrent (worker pool, sharded cache,
# daemon); every PR must pass the race detector, not just the plain tests.
race:
	$(GO) test -race ./...

# fuzz runs each fuzz target for a fixed short budget. irtext.FuzzParse:
# whatever parses must print back to a fixed point and survive the IR
# verifier and a step-bounded interpretation. treegiond's
# FuzzCompileRequest: any /v1/compile or /v1/compile-batch body answers
# 200, 400, 413 or 422, every error with a JSON error code. Crashers land
# under each package's testdata/fuzz/<target>, which plain `go test`
# replays.
fuzz:
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 30s ./internal/irtext/
	$(GO) test -run NONE -fuzz FuzzCompileRequest -fuzztime 30s ./cmd/treegiond/

# Suite compiles (serial/parallel/cached/verified/warm-store/verified-warm),
# the stress preset at 8 workers, the interprocedural presets with inlining
# off and on (BenchmarkCompileSuiteInline), plus the per-phase
# micro-benchmarks of the compiler core (liveness, DDG build, list
# scheduling), with allocation counts. The raw `go test -json` stream is
# written to $(BENCH_NEW); `make bench-compare` diffs it against
# $(BENCH_OLD). A capture is evidence from the box that ran it, one
# -benchtime 3x sample per benchmark; for an A/B against a parent commit
# use `make bench-ab`. The parallel and stress benchmarks report
# speedup-vs-serial; on a single-core box that metric caps at ~1x by
# physics.
BENCH_OLD ?= BENCH_8.json
BENCH_NEW ?= BENCH_9.json
bench:
	$(GO) test -run XXX -bench 'BenchmarkCompileSuite|BenchmarkCompileStress|BenchmarkColdCompile' -benchmem -benchtime 3x -json . | tee $(BENCH_NEW)

# bench-compare diffs two bench captures. benchstat is used when installed
# (fed plain text extracted from the JSON captures); otherwise the bundled
# dependency-free cmd/benchdiff prints the old/new/delta table. Override the
# endpoints with BENCH_OLD= / BENCH_NEW=.
bench-compare:
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) run ./cmd/benchdiff -extract $(BENCH_OLD) > /tmp/benchdiff_old.txt; \
		$(GO) run ./cmd/benchdiff -extract $(BENCH_NEW) > /tmp/benchdiff_new.txt; \
		benchstat /tmp/benchdiff_old.txt /tmp/benchdiff_new.txt; \
	else \
		$(GO) run ./cmd/benchdiff $(BENCH_OLD) $(BENCH_NEW); \
	fi

# bench-ab runs perfbench's interleaved A/B of this tree against PARENT (a
# git revision, built in a worktree under .bench_ab/) on one WORKLOAD
# (suite, stress or serve): `make bench-ab PARENT=<rev> WORKLOAD=<name>`.
# It prints each end-to-end metric's medians, quartiles and verdict; see
# perfbench/ab.py.
PARENT ?= HEAD~1
WORKLOAD ?= suite
bench-ab:
	python3 perfbench/ab.py ab --parent $(PARENT) --workload $(WORKLOAD)

# check is the fast gate: lint + build + full tests, plus the race detector
# over the concurrency-heavy subsystems (artifact store with its tgart2
# codec tests, job queue, singleflight cache, daemon endpoints, telemetry
# registry, and the eval.Arena/ddg.Scratch/sched.Scratch reuse paths: every
# compile owns an arena and each pipeline worker reuses one across its
# chunk, so the arena-reuse and scheduler panic-reuse tests race here) and
# one racing pass over the hot-path micro-benchmarks, whose bodies reuse
# one scratch across every region.
# The inliner and the call-executing interpreter race here because pipeline
# workers run splices concurrently across functions of one program.
# The eval -short slice includes TestVerifyStress2Slice, so one giant
# stress2 function races through compile-and-verify on every check; the
# sched line races the bitmap-queue unit and adversarial tests.
# The verifier races its IR009 and SC differential tests (the word-packed
# must-define pass against its map-based witness) on a suite slice.
# The store, eval and verify run with -short so their heavier matrices race
# a reduced preset slice; the full matrices run in `test`.
check: lint build test
	$(GO) test -race -short ./internal/store/ ./internal/eval/ ./internal/verify/
	$(GO) test -race ./internal/jobs/ ./internal/compcache/ ./internal/pipeline/ ./internal/router/ ./cmd/treegiond/
	$(GO) test -race ./internal/telemetry/ ./internal/ddg/ ./internal/sched/
	$(GO) test -race ./internal/inline/ ./internal/interp/
	$(GO) test -race -run NONE -bench 'BenchmarkColdCompile' -benchtime 1x .

# loadtest boots the two-replica scale-out topology (2 treegiond + the
# shard router) and runs a short closed-loop loadgen pass against the
# router; non-zero exit if the error rate blows the budget.
loadtest: build
	./scripts/loadtest.sh

# lint runs first and fails the gate on any finding.
ci: lint build test race
