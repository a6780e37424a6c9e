# Development entry points. `make ci` is the gate every change must pass:
# vet, formatting, build, the hottileslint analyzer suite (plus the shadow
# pass through `go vet -vettool`; see DESIGN.md §11), the full test suite
# under the race detector (the parallel experiment engine makes -race
# meaningful; see DESIGN.md §9), and the coverage report with its
# per-package floor.

GO ?= go

# Packages whose coverage is gated ("pkg:floor" pairs, integer percent).
# internal/obs is the observability layer PR 2 introduced; its nil-receiver
# no-op paths are easy to leave untested by accident. internal/workload is
# the PR 7 dynamic-workload engine, whose property/golden wall is the whole
# point — a coverage drop there means the wall has holes.
COVER_FLOORS = repro/internal/obs:80 repro/internal/workload:80

# Seconds of coverage-guided fuzzing per fuzzer in `make fuzz`.
FUZZTIME ?= 10s

.PHONY: help ci vet benchvet fmtcheck build lint shadow test race bench benchsmoke benchcmp cover fuzz golden servesmoke worksmoke

ci: vet benchvet fmtcheck build lint shadow race cover benchsmoke benchcmp servesmoke worksmoke

help:
	@echo "make ci          - full gate: vet, benchvet, fmtcheck, build, lint, shadow, race, cover, benchsmoke"
	@echo "make benchvet    - vet the bench/ module (its own go.mod) against this tree's API"
	@echo "make test        - go test ./..."
	@echo "make race        - go test -race ./..."
	@echo "make bench       - run the tracked benchmarks (engine, tiler, model, fan-out)"
	@echo "                   with -benchmem and write BENCH_$(BENCH_PR).json via cmd/benchdiff;"
	@echo "                   compare baselines with: ./bin/benchdiff old.json new.json"
	@echo "make benchsmoke  - compile-and-run every benchmark once (catches bit-rot)"
	@echo "make worksmoke   - tiny end-to-end spmmsim gnn+evolve run"
	@echo "make benchcmp    - quick tracked-benchmark run vs the committed baseline"
	@echo "make lint        - hottileslint analyzer suite (DESIGN.md §11, §16), eleven passes:"
	@echo "                   mapiter nakedgo spanend floateq lockcopy shadow"
	@echo "                   hotalloc detrand ctxflow errwrap metricname"
	@echo "make cover       - coverage with per-package floor"
	@echo "make fuzz        - short coverage-guided fuzz pass (FUZZTIME=$(FUZZTIME))"
	@echo "make golden      - regenerate pinned experiment outputs (review the diff!)"
	@echo "make servesmoke  - end-to-end hottilesd daemon smoke (real port, SIGTERM drain)"

vet:
	$(GO) vet ./...

# benchvet vets the repository benchmark, a separate module (bench/go.mod,
# replace repro => ../) that `./...` above does not reach: an internal API
# change that breaks it fails here instead of in the benchmark run.
benchvet:
	cd bench && $(GO) vet ./...

# fmtcheck fails when any file is not gofmt-clean (testdata included; the
# analyzer fixtures are real Go code and drift there is just as confusing).
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "fmtcheck: files need gofmt:"; echo "$$out"; exit 1; \
	fi; \
	echo "fmtcheck: all files gofmt-clean"

build:
	$(GO) build ./...

# lint runs the hottileslint analyzer suite (DESIGN.md §11) over the whole
# module in standalone mode. Any diagnostic fails the build.
bin/hottileslint: FORCE
	@mkdir -p bin
	$(GO) build -o bin/hottileslint ./cmd/hottileslint

lint: bin/hottileslint
	./bin/hottileslint ./...

# shadow runs the same binary through the `go vet -vettool` protocol with
# only the shadow analyzer enabled — exercising the unitchecker path in CI
# and catching shadowed variables that plain `go vet` no longer reports.
shadow: bin/hottileslint
	$(GO) vet -vettool=$(CURDIR)/bin/hottileslint -shadow ./...

FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the perf-trajectory benchmarks (DESIGN.md §12): the zero-alloc
# engine and waterfill microbenches, the tiler, the analytical model, the
# simulator, and the experiment fan-out. Output lands in BENCH_$(BENCH_PR).json
# (committed as this PR's baseline); diff two baselines with
# `./bin/benchdiff [-threshold 1.25] BENCH_old.json BENCH_new.json`.
BENCH_PR ?= 9
# Iteration budget per tracked benchmark in `make bench`. The committed
# baselines are measured on an otherwise idle machine with a few seconds
# per benchmark; short-sample runs of the ~100ms studies are noise-bound.
BENCHTIME ?= 3s
TRACKED_BENCH = BenchmarkExperimentsFanout|BenchmarkTilePartition|BenchmarkModelEstimateGrid|BenchmarkSimulateHeterogeneous|BenchmarkPartitionHotTiles|BenchmarkSpMMParallel
TRACKED_BENCH_SIM = BenchmarkEngine|BenchmarkWaterfill|BenchmarkRunnerReuse
TRACKED_BENCH_WORKLOAD = BenchmarkGNNForward|BenchmarkEvolveReplan
TRACKED_BENCH_LINT = BenchmarkLintSuite

bin/benchdiff: FORCE
	@mkdir -p bin
	$(GO) build -o bin/benchdiff ./cmd/benchdiff

bench: bin/benchdiff
	{ $(GO) test -run=NONE -bench='$(TRACKED_BENCH_SIM)' -benchmem -benchtime=$(BENCHTIME) ./internal/sim && \
	  $(GO) test -run=NONE -bench='$(TRACKED_BENCH_WORKLOAD)' -benchmem -benchtime=$(BENCHTIME) ./internal/workload && \
	  $(GO) test -run=NONE -bench='$(TRACKED_BENCH_LINT)' -benchmem -benchtime=$(BENCHTIME) ./internal/analysis && \
	  $(GO) test -run=NONE -bench='$(TRACKED_BENCH)' -benchmem -benchtime=$(BENCHTIME) . ; } \
	| tee /dev/stderr | ./bin/benchdiff -emit BENCH_$(BENCH_PR).json

# benchsmoke compiles and runs every benchmark in the module for exactly one
# iteration — a CI guard against benchmarks that no longer build or crash.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# benchcmp guards the perf trajectory inside `make ci`: it re-runs the
# tracked benchmarks briefly and compares against the committed
# BENCH_$(BENCH_PR).json baseline. The short -benchtime keeps the gate
# cheap, so the threshold is deliberately generous — this catches
# order-of-magnitude regressions and zero-alloc benchmarks that started
# allocating, not percent-level drift (use `make bench` + bin/benchdiff for
# the precise comparison before updating the baseline).
BENCHCMP_THRESHOLD ?= 4.0
benchcmp: bin/benchdiff
	{ $(GO) test -run=NONE -bench='$(TRACKED_BENCH_SIM)' -benchmem -benchtime=10ms ./internal/sim && \
	  $(GO) test -run=NONE -bench='$(TRACKED_BENCH_WORKLOAD)' -benchmem -benchtime=10ms ./internal/workload && \
	  $(GO) test -run=NONE -bench='$(TRACKED_BENCH_LINT)' -benchmem -benchtime=10ms ./internal/analysis && \
	  $(GO) test -run=NONE -bench='$(TRACKED_BENCH)' -benchmem -benchtime=10ms . ; } \
	| ./bin/benchdiff -emit bin/BENCH_head.json
	./bin/benchdiff -threshold $(BENCHCMP_THRESHOLD) BENCH_$(BENCH_PR).json bin/BENCH_head.json

# cover prints a per-package coverage summary and fails when any gated
# package drops below its floor.
cover:
	$(GO) test -count=1 -cover -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@for pair in $(COVER_FLOORS); do \
		pkg=$${pair%:*}; floor=$${pair##*:}; \
		pct=$$($(GO) test -count=1 -cover $$pkg 2>/dev/null \
			| sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then \
			echo "cover: no coverage reported for $$pkg"; exit 1; \
		fi; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN { print (p >= f) ? 1 : 0 }'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$pkg at $$pct% is below the $$floor% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg at $$pct% (floor $$floor%)"; \
	done

# fuzz runs each fuzzer's coverage-guided loop for FUZZTIME — a smoke pass,
# not a soak; the seed corpora also run in every plain `go test ./...`.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=$(FUZZTIME) ./internal/mm
	$(GO) test -fuzz=FuzzCOOToCSR -fuzztime=$(FUZZTIME) ./internal/sparse
	$(GO) test -fuzz=FuzzReadPlan -fuzztime=$(FUZZTIME) ./internal/hotcore

# servesmoke exercises the hottilesd daemon end to end through real
# processes: ephemeral port, planload's upload→fetch→validate round trip, a
# small concurrent burst, and a SIGTERM that must drain cleanly.
bin/hottilesd: FORCE
	@mkdir -p bin
	$(GO) build -o bin/hottilesd ./cmd/hottilesd

bin/planload: FORCE
	@mkdir -p bin
	$(GO) build -o bin/planload ./cmd/planload

servesmoke: bin/hottilesd bin/planload
	sh scripts/servesmoke.sh

# worksmoke runs the dynamic-workload studies end to end through the real
# CLI at a tiny scale — a CI guard that `spmmsim gnn evolve` keeps working
# (the golden tests pin their numbers; this pins the binary path).
worksmoke:
	$(GO) run ./cmd/spmmsim -scale 2048 gnn evolve > /dev/null
	@echo "worksmoke: spmmsim gnn + evolve ok"

# golden regenerates the pinned experiment outputs after an intentional
# change (review the diff before committing).
golden:
	$(GO) test ./internal/experiments -run TestGolden -update -count=1
