# Build / verification entry points. CI_STEPS is the one list of what CI
# runs: `make ci` runs every step in order, and the CI workflow runs
# `make ci`.

GO ?= go

CI_STEPS = fmtcheck vet lint build crossbuild examples test race papergolden fuzzsmoke benchsmoke benchcheck

# The packages that carry micro-benchmarks (root plus the wire-facing ones).
BENCH_PKGS = . ./internal/fleet/ ./internal/wal/ ./internal/wire/

.PHONY: all $(CI_STEPS) bench loc profile ci

all: build

# go vet's default analyzer suite already includes copylocks and
# structtag module-wide; the second, targeted pass pins exactly those two
# analyzers on the lock-bearing packages (the Engine with its machine lock,
# the Scheduler with its atomic free mask, the cluster Fleet and the wire
# Server must never be copied)
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

# Builds each examples/* program and runs it: a non-zero exit fails the step
# (`build` only compiles them). They run in milliseconds each.
examples:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
		$(GO) build -o "$$bin/" ./examples/... && \
		for ex in "$$bin"/*; do echo "$$ex" | sed 's|.*/|examples/|'; "$$ex" > /dev/null || exit 1; done

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

# Full-fidelity paperrepro, every table and figure, must print
# cmd/paperrepro/testdata/full.golden byte for byte. It is a step of its
# own, not a test: `test` and `race` would each pay ~12 s for it (far more
# under the race detector), while `-quick` is held by TestQuickGolden. A
# change that means to move the output regenerates the golden with
# `go run ./cmd/paperrepro > cmd/paperrepro/testdata/full.golden`.
papergolden:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
		$(GO) run ./cmd/paperrepro > "$$out" && cmp "$$out" cmd/paperrepro/testdata/full.golden

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

# Emits four CPU profiles and one allocation profile: cpu.prof of the
# heaviest training pipeline (the Figure 4 cross-validation grid);
# train.prof of a set-up's Train at the daemon's fidelity on every
# (machine, size) BenchmarkEngineTrain covers;
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
	$(GO) test -run '^$$' -bench '^BenchmarkEngineTrain$$' -benchtime 50x -count 1 \
		-cpuprofile train.prof -o repro.test .
	$(GO) test -run '^$$' -bench '^BenchmarkClusterAdmitResident$$/^machines=64$$/^best-predicted$$' \
		-benchtime 1000000x -count 1 -cpuprofile admit.prof -memprofile admit.mem -o repro.test .
	$(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchtime 2s -count 1 \
		-cpuprofile recovery.prof -o wal.test ./internal/wal/
	@echo "wrote cpu.prof, train.prof, admit.prof, admit.mem and recovery.prof (inspect with: go tool pprof repro.test cpu.prof; go tool pprof repro.test train.prof; go tool pprof repro.test admit.prof; go tool pprof -sample_index alloc_space repro.test admit.mem; go tool pprof wal.test recovery.prof)"

ci: $(CI_STEPS)
