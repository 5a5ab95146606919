# Build / verification entry points. CI_STEPS is the one list of what CI
# runs: `make ci` runs every step in order, and the CI workflow runs
# `make ci`.

GO ?= go

CI_STEPS = fmtcheck vet lint build crossbuild test race fuzzsmoke clustersmoke crashsmoke restartsmoke daemonsmoke walsmoke benchsmoke benchcheck

# The packages that carry micro-benchmarks (root plus the wire-facing ones).
BENCH_PKGS = . ./internal/fleet/ ./internal/wal/ ./internal/wire/

.PHONY: all $(CI_STEPS) bench loc profile ci

all: build

# go vet's default analyzer suite already includes copylocks and
# structtag module-wide; the second, targeted pass pins exactly those two
# analyzers on the lock-bearing packages (the Engine, the serving
# Scheduler, the cluster Fleet and the wire Server must never be copied)
# so the guarantee survives even if the default suite is ever narrowed
# via VETFLAGS or a toolchain change. The nested bench module is vetted on
# its own: the root ./... never reaches it, and benchcheck's go test runs
# only vet's reduced set (so copylocks on its fleet.Backend wrappers is
# checked here alone).
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -structtag . ./internal/sched/ ./internal/fleet/ ./internal/wire/
	cd bench && $(GO) vet ./...

# gofmt -l must print nothing (the nested bench module included).
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# The write-ahead log maps its file with syscall.Mmap, which exists on unix
# only; a non-Linux unix build keeps that path compiling (offline: the
# toolchain cross-compiles the standard library itself).
crossbuild:
	GOOS=darwin $(GO) build ./...

# The repo's own analyzers (cmd/numalint): lock-rank order, no blocking
# work under the fleet lock, zero-alloc hot paths, determinism in the
# simulation packages, and sentinel-wrapped error chains. Findings are
# suppressed line-by-line with //numalint:ignore <analyzer> <reason>; the
# reason is mandatory. See DESIGN.md, "Static invariants".
lint:
	$(GO) run ./cmd/numalint ./...

test:
	$(GO) test ./...

# Race coverage for every package. The detector only fires where tests
# actually exercise concurrency (Engine singleflight caches, concurrent
# fleet admissions racing machine death, the wire server's SSE fan-out,
# WAL group commit, ...), but running module-wide means a new concurrent
# package is covered the day it gains a test, with no list to maintain.
race:
	$(GO) test -race ./...

# A few seconds of each differential fuzz target on top of its seed corpus
# (which `test` already runs): the wire recognisers against encoding/json, the
# log's batch frame scan against a frame-at-a-time one, the snapshot decoder
# against its own re-encoding, the serving scheduler
# against its from-scratch reference, alone and as two schedulers sharing one
# machine model's table set, the fleet's routing index (memoized cell orders
# included) against a preview fan-out, a restart from a damaged log against a
# replay of each record into the engines, and the model decoder against hostile
# bytes (its seeds are whole saved models, so minimizing each new
# input is capped at 1s; uncapped it eats the budget). A finding is written
# to the package's testdata/fuzz and fails the step.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzScanFrames$$' -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 5s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerParity$$' -fuzztime 5s ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzSharedTablesParity$$' -fuzztime 5s ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzRoutePass$$' -fuzztime 5s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreMatchesReplay$$' -fuzztime 5s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadPredictor$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/core/

# The micro-benchmarks at the default budget, for reading while you work.
# They gate nothing: allocation ceilings are ordinary tests in `go test
# ./...`, and timing verdicts come from numabench (`sh bench/run.sh`, see
# bench/README.md), which compares a change with its parent.
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# Deterministic fleet churn smoke: 200 containers over the AMD+Intel
# cluster at reduced training fidelity.
clustersmoke:
	$(GO) run ./cmd/clustersim -quick

# Failure-injection smoke: the same churn trace with amd-0 crashing at
# t=600s — health probes ride the machine to dead, its tenants fail over,
# and the report must account for every record (deterministic output).
crashsmoke:
	$(GO) run ./cmd/clustersim -quick -crash amd-0@600

# Restart scenario smoke: the crash trace with a simulated control-plane
# crash at t=900s, recovered by replaying the fleet log; then restarts at
# t=300s and t=700s around a crash at t=400s, so the second recovery installs
# the orphans the dead machine's engine holds; then a partition healed before
# a restart under domain spreading, the one run where the occupied-domain mask
# routing builds meets a recovered fleet.
restartsmoke:
	$(GO) run ./cmd/clustersim -quick -crash amd-0@600 -restart 900
	$(GO) run ./cmd/clustersim -quick -crash amd-0@400 -restart 300,700
	$(GO) run ./cmd/clustersim -quick -partition amd-0@300:700 -restart 900 -spread

# Wire-level end-to-end smoke: build numaplaced and loadgen, start the
# daemon on an ephemeral loopback port at reduced training fidelity,
# drive it with `loadgen -quick`, and require a clean run (zero request
# errors, zero dropped event frames) plus a graceful SIGTERM shutdown.
daemonsmoke:
	sh scripts/daemonsmoke.sh

# Crash-recovery smoke: a live daemon with -data-dir is loaded, killed
# with SIGKILL while tenants are resident, and restarted on the same log;
# /v1/assignments must be byte-identical across the crash and the
# recovered state must accept a release.
walsmoke:
	sh scripts/walsmoke.sh

# One-iteration pass over every benchmark: catches benchmark rot (a missing
# benchmark, setup errors, API drift) without paying for stable timings.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -count 1 $(BENCH_PKGS)

# The repo's benchmark lives in the nested module bench/ (its own go.mod,
# replacing repro with ../), which `go build ./... && go test ./...` at the
# root never compiles: a signature drift in fleet.Backend, fleet.Persister
# or the Cluster/Engine surface it drives must fail here, not in the
# benchmark run. ~15 s.
benchcheck:
	cd bench && $(GO) test ./...

# The line counts a simplicity change reports (ROADMAP.md's standing rule),
# each a `find … | xargs cat | wc -l`: non-test Go outside bench/, test Go
# outside bench/, all Go in bench/, and non-test Go in cmd/ + examples/ (the
# binaries' own assembly). Run it at the parent and at the change for the
# before/after.
loc:
	@printf 'non-test Go outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'test Go outside bench/:     '; find . -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l
	@printf 'Go in bench/:               '; find ./bench -name '*.go' | xargs cat | wc -l
	@printf 'non-test Go in cmd/+examples/: '; find ./cmd ./examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# Emits three CPU profiles and one allocation profile: cpu.prof of the
# heaviest training pipeline (the Figure 4 cross-validation grid);
# admit.prof and admit.mem of the resident admission cycle (place the next
# container, release a random resident one) on a 64-machine fleet at 60 %
# fill under best-predicted routing with domain spreading
# (BenchmarkClusterAdmitResident/machines=64/best-predicted, the fleet_resident
# workload's shape; both include the fleet's build and warm-up, and
# `-focus 'Fleet\)\.(Place|Release)$'` keeps to the fleet's verbs); and
# recovery.prof of a restart (wal.Open plus Fleet.Restore over a 10k-record
# log, BenchmarkRecovery), the profile DESIGN.md's per-record restart table
# is read from.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure4AMD' -benchtime 1x -count 1 \
		-cpuprofile cpu.prof -o repro.test .
	$(GO) test -run '^$$' -bench '^BenchmarkClusterAdmitResident$$/^machines=64$$/^best-predicted$$' \
		-benchtime 1000000x -count 1 -cpuprofile admit.prof -memprofile admit.mem -o repro.test .
	$(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchtime 2s -count 1 \
		-cpuprofile recovery.prof -o wal.test ./internal/wal/
	@echo "wrote cpu.prof, admit.prof, admit.mem and recovery.prof (inspect with: go tool pprof repro.test cpu.prof; go tool pprof repro.test admit.prof; go tool pprof -sample_index alloc_space repro.test admit.mem; go tool pprof wal.test recovery.prof)"

ci: $(CI_STEPS)
