# Build / test entry points. `make check` is the tier-1 gate;
# `make fuzz-smoke` additionally runs each fuzz target for a short,
# CI-sized burst over its checked-in seed corpus.

GO      ?= go
GOFMT   ?= gofmt
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check fanout-check grid-check lock-check test test-race check race-smoke fuzz-smoke bench-mc bench-mc-smoke bench-pipeline bench-frontend bench-weaken bench-stress pipeline-smoke frontend-smoke obs-smoke obs-live-smoke serve-smoke weaken-smoke stress-smoke clean

# Module size for the pipeline byte-identical-output smoke. Big enough
# to exercise the parallel fan-out, small enough for `make check`.
PIPELINE_SMOKE_SLOC ?= 20000

# Module size for the frontend byte-identical-output smoke (chunked
# parallel parse + parallel lowering through the CLI).
FRONTEND_SMOKE_SLOC ?= 100000

# Module size for the daemon smoke (cold port, one-function edit,
# warm re-port — all byte-compared against the CLI).
SERVE_SMOKE_SLOC ?= 8000

# Module size for the stress smoke (planted race found + minimized +
# confirmed; defect-free twin sweeps clean).
STRESS_SMOKE_SLOC ?= 20000



all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, naming the files, when gofmt would rewrite
# any tracked .go file.
fmt-check:
	@files=$$(git ls-files '*.go' | xargs $(GOFMT) -l); \
	if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# Fan-out gate: fails, naming the lines, when a tracked non-test .go
# file starts a goroutine outside the places allowed to: fanout.Each
# (the one index-parallel loop), the model checker's work-stealing
# frontier, the daemon, the live HTTP exporter, the CLI's listener and
# the benchmark's in-process daemon client (perfbench/serveedit.go).
FANOUT_ALLOWED = ':!:internal/fanout/' ':!:internal/mc/parallel.go' ':!:internal/serve/' ':!:internal/obs/http.go' ':!:cmd/atomig/main.go' ':!:perfbench/serveedit.go'
fanout-check:
	@lines=$$(git ls-files '*.go' ':!:*_test.go' $(FANOUT_ALLOWED) | \
		xargs grep -nE '^[[:space:]]*go[[:space:]]+(func[[:space:](]|[A-Za-z_][A-Za-z0-9_.]*[[:space:]]*\()'); \
	if [ -n "$$lines" ]; then echo "goroutines outside fanout.Each (use fanout.Each):"; echo "$$lines"; exit 1; fi

# Grid gate: fails, naming the lines, when a tracked non-test .go file
# outside internal/stress and internal/vm calls vm.GridSeed, the
# function that derives schedule-grid seeds. Every schedule grid runs
# on stress.Sweep (docs/STRESS.md); a caller deriving grid seeds itself
# is a private grid engine.
grid-check:
	@lines=$$(git ls-files '*.go' ':!:*_test.go' ':!:internal/stress/' ':!:internal/vm/' | \
		xargs grep -nE 'GridSeed[[:space:]]*\('); \
	if [ -n "$$lines" ]; then echo "vm.GridSeed outside internal/stress and internal/vm (sweep with stress.Sweep):"; echo "$$lines"; exit 1; fi

# Lock gate: fails, naming the lines, when a tracked non-test .go file
# of the porting pipeline or of the execution engines imports sync,
# sync/atomic or unsafe. The rule: fanout.Each owns the pipeline's
# synchronization, its callbacks write per-index slots, and the
# in-order merge builds every cross-function structure. The execution
# engines (vm, memmodel, race, stress) keep their dense per-cell state
# single-owner: each worker owns its VM, detector and scheduler.
LOCK_CHECKED = internal/ir internal/minic internal/analysis internal/alias internal/transform internal/opt internal/atomig internal/vm internal/memmodel internal/race internal/stress
lock-check:
	@lines=$$(git ls-files -- $(LOCK_CHECKED) | grep '\.go$$' | grep -v '_test\.go$$' | \
		xargs grep -nHE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.][A-Za-z0-9_]*[[:space:]]+)?"(sync|sync/atomic|unsafe)"[[:space:]]*(//.*)?$$'); \
	if [ -n "$$lines" ]; then echo "sync, sync/atomic or unsafe in the porting pipeline or an execution engine (write per-index slots from fanout.Each, merge in order; keep engine state per worker):"; echo "$$lines"; exit 1; fi

test:
	$(GO) test ./...

# The stack's own race detector is exercised by the test suite; this
# runs the suite under Go's runtime race detector as well.
test-race:
	$(GO) test -race ./...

check: build vet fmt-check fanout-check grid-check lock-check test test-race bench-mc-smoke race-smoke obs-smoke obs-live-smoke pipeline-smoke frontend-smoke serve-smoke weaken-smoke stress-smoke

# Model-checker scaling sweep (docs/MODEL-CHECKER.md): exhaustive
# exploration of the litmus+seqlock corpus at 1..8 workers, appending
# execs/sec, speedup vs -j 1, states and pruning counters to
# BENCH_mc.json.
bench-mc:
	$(GO) run ./cmd/atomig-bench -exp mc-scaling -json BENCH_mc.json

# Porting-pipeline scaling sweep (docs/PIPELINE.md): port the generated
# >= 100k-line module at 1..8 workers, appending throughput, speedup vs
# -j 1 and the ported-output hash to BENCH_pipeline.json. The sweep
# itself fails on any cross-worker output drift.
bench-pipeline:
	$(GO) run ./cmd/atomig-bench -exp pipeline-scaling -json BENCH_pipeline.json

# Frontend scaling sweep (docs/PIPELINE.md "Frontend"): compile the
# generated >= 100k-line module at 1..8 workers, appending per-phase
# (lex/parse/lower) timings, throughput and the module hash to
# BENCH_pipeline.json. Fails on any cross-worker module drift.
bench-frontend:
	$(GO) run ./cmd/atomig-bench -exp frontend-scaling -json BENCH_pipeline.json

# End-to-end determinism smoke of the parallel pipeline
# (docs/PIPELINE.md): generate a large module, port it through the CLI
# at -j 1 and -j 8, and require byte-identical output.
pipeline-smoke:
	$(GO) build -o bin/ ./cmd/atomig ./cmd/atomig-bench
	bin/atomig-bench -gen-module bin/pipeline-smoke.c -sloc $(PIPELINE_SMOKE_SLOC)
	bin/atomig -j 1 -o bin/pipeline-smoke-j1.air bin/pipeline-smoke.c
	bin/atomig -j 8 -o bin/pipeline-smoke-j8.air bin/pipeline-smoke.c
	cmp bin/pipeline-smoke-j1.air bin/pipeline-smoke-j8.air

# Frontend determinism smoke (docs/PIPELINE.md "Frontend"): compile a
# generated 100k-line module through the CLI at -j 1 and -j 8 and
# require byte-identical original-module dumps (-emit-orig: the
# frontend's output before porting), ported .air files, and reports.
# The porting-time line (wall clock) and the wrote-file line (per-j
# output path) are filtered before comparing.
frontend-smoke:
	$(GO) build -o bin/ ./cmd/atomig ./cmd/atomig-bench
	bin/atomig-bench -gen-module bin/frontend-smoke.c -sloc $(FRONTEND_SMOKE_SLOC)
	bin/atomig -j 1 -emit-orig -o bin/frontend-smoke-j1.air bin/frontend-smoke.c > bin/frontend-smoke-j1.raw
	bin/atomig -j 8 -emit-orig -o bin/frontend-smoke-j8.air bin/frontend-smoke.c > bin/frontend-smoke-j8.raw
	grep -v -e "porting time:" -e "^wrote " bin/frontend-smoke-j1.raw > bin/frontend-smoke-j1.out
	grep -v -e "porting time:" -e "^wrote " bin/frontend-smoke-j8.raw > bin/frontend-smoke-j8.out
	cmp bin/frontend-smoke-j1.out bin/frontend-smoke-j8.out
	cmp bin/frontend-smoke-j1.air bin/frontend-smoke-j8.air

# End-to-end smoke of the incremental porting daemon (docs/SERVE.md):
# drive `atomig -serve` through load → port → one-function edit →
# re-port over the JSON protocol, byte-comparing both ports against
# the CLI and requiring the re-port to re-analyze exactly one
# function. Built binaries, not `go run`, so exit codes survive intact.
serve-smoke:
	$(GO) build -o bin/ ./cmd/atomig ./cmd/atomig-bench
	sh scripts/serve-smoke.sh bin/atomig bin/atomig-bench bin $(SERVE_SMOKE_SLOC)

# Checker-in-the-loop weakening sweep (docs/WEAKENING.md): port + weaken
# the CK-style corpus and two generated appgen modules, appending cost
# reduction, accepted-weakening counts and the checker calls and stress
# screens behind them to BENCH_weaken.json.
bench-weaken:
	$(GO) run ./cmd/atomig-bench -exp weaken -json BENCH_weaken.json

# Schedule-fuzzing stress sweep (docs/STRESS.md): throughput over a
# generated 100k+-line planted-defect module, detection rate vs
# detector sampling fraction, and the pure-stress weakening oracle on
# the program whose exhaustive baseline refuses, appended to
# BENCH_stress.json.
bench-stress:
	$(GO) run ./cmd/atomig-bench -exp stress -json BENCH_stress.json

# End-to-end smoke of the stress mode (docs/STRESS.md): a generated
# module with a seeded race is ported, swept, auto-minimized and
# checker-confirmed; its defect-free twin must sweep clean. Built
# binaries, not `go run`, so exit codes survive intact.
stress-smoke:
	$(GO) build -o bin/ ./cmd/atomig ./cmd/atomig-bench ./cmd/atomig-mc
	sh scripts/stress-smoke.sh bin/atomig bin/atomig-bench bin/atomig-mc bin $(STRESS_SMOKE_SLOC)

# End-to-end smoke of the weakening optimizer (docs/WEAKENING.md):
# port + -O the seqlock-gap and cna-lock flagships through the CLI at
# -j 1 and -j 4, asserting the baseline verdict holds, the static cost
# strictly decreases, both reports are byte-identical, cna-lock screens
# with stress sweeps and spends at most 24 checker re-verifications (an
# exact count, so a noise-free regression gate), and seqlock-gap
# screens with the checker. Built binary, not `go run`, so exit codes
# survive intact.
weaken-smoke:
	$(GO) build -o bin/ ./cmd/atomig
	sh scripts/weaken-smoke.sh bin/atomig

# One-iteration smoke of the same sweep so `make check` notices a
# broken or drifting parallel engine without paying for a full
# measurement run.
bench-mc-smoke:
	$(GO) test -run none -bench BenchmarkMCScaling -benchtime=1x ./internal/bench

# End-to-end smoke of the happens-before race detector (docs/RACES.md):
# the seqlock-gap corpus program must be flagged racy before porting
# and verified race-free after, through every CLI surface: the
# explanation, the exhaustive checker, one seeded run, and the
# schedule-grid sweep. Built
# binaries, not `go run`, so exit codes survive intact.
race-smoke:
	$(GO) build -o bin/ ./cmd/atomig ./cmd/atomig-mc ./cmd/atomig-run
	bin/atomig -explain-races -corpus seqlock-gap
	bin/atomig-mc -race -stats -corpus seqlock-gap; test $$? -eq 4
	bin/atomig-mc -race -stats -port -corpus seqlock-gap
	bin/atomig-run -race -model wmm -sched reorder -corpus seqlock-gap; test $$? -eq 3
	bin/atomig-run -race -model wmm -sched reorder -port -corpus seqlock-gap
	bin/atomig-mc -stress -seeds 4 -corpus seqlock-gap; test $$? -eq 4
	bin/atomig-mc -stress -seeds 4 -port -corpus seqlock-gap

# End-to-end smoke of the observability exports (docs/OBSERVABILITY.md):
# a parallel ported check must emit a metrics snapshot and a Chrome
# trace timeline that the validator accepts. Built binaries, not
# `go run`, so exit codes survive intact.
obs-smoke:
	$(GO) build -o bin/ ./cmd/atomig-mc ./cmd/atomig-bench
	bin/atomig-mc -port -j 4 -corpus seqlock-gap -metrics bin/obs-metrics.json -trace bin/obs-trace.json
	bin/atomig-bench -check-metrics bin/obs-metrics.json -check-trace bin/obs-trace.json

# Module size for the live-telemetry smoke (mid-flight /metrics scrape
# cross-checked against the end-of-run snapshot).
OBS_LIVE_SMOKE_SLOC ?= 4000

# End-to-end smoke of the live telemetry surface (docs/OBSERVABILITY.md
# "Live HTTP exposition"): a daemon with -http is scraped mid-port, the
# scrape validated and cross-checked against the final snapshot, and
# /healthz walked ok -> degraded under shed load. Built binaries, not
# `go run`, so exit codes survive intact.
obs-live-smoke:
	$(GO) build -o bin/ ./cmd/atomig ./cmd/atomig-bench
	sh scripts/obs-live-smoke.sh bin/atomig bin/atomig-bench bin $(OBS_LIVE_SMOKE_SLOC)

# Go allows one -fuzz pattern per invocation, so the targets run
# sequentially. Crashers are written to testdata/fuzz/ as new
# regression seeds; check them in.
fuzz-smoke:
	$(GO) test -run none -fuzz FuzzCompile -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run none -fuzz FuzzParseChunked -fuzztime $(FUZZTIME) ./internal/minic
	$(GO) test -run none -fuzz FuzzParseRoundTrip -fuzztime $(FUZZTIME) ./internal/ir
	$(GO) test -run none -fuzz FuzzAliasExplore -fuzztime $(FUZZTIME) ./internal/alias
	$(GO) test -run none -fuzz FuzzLocality -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run none -fuzz FuzzMinimize -fuzztime $(FUZZTIME) ./internal/stress
	$(GO) test -run none -fuzz FuzzSessionEdit -fuzztime $(FUZZTIME) ./internal/serve

clean:
	$(GO) clean ./...
	rm -rf bin/
