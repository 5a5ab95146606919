# Build / verification entry points. CI_STEPS is the one list of what CI
# runs: `make ci` runs every step in order, and the CI workflow runs
# `make ci`.

GO ?= go

CI_STEPS = fmtcheck vet lint build crossbuild examples test race papergolden fuzzsmoke benchsmoke benchcheck

.PHONY: all $(CI_STEPS) bench bincover loc profile ci

all: build

# go vet's default analyzer suite already includes copylocks and
# structtag module-wide; the second, targeted pass pins exactly those two
# analyzers on the lock-bearing packages (the Engine with its embedded
# Scheduler, the Scheduler with its machine lock and atomic free mask, the
# cluster Fleet and the wire Server must never be copied)
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

# A few seconds of every fuzz target `go test -list` finds, on top of its seed
# corpus (which `test` already runs), as `race` runs over every package: a
# package that gains a fuzz target is fuzzed the day it gains it, with no list
# to maintain. Each target gets 5 s; minimizing a new input is capped at 1 s
# (some seeds are whole saved models, and uncapped minimizing eats the
# budget). The cap only bounds how long a finding is shrunk: a finding is
# written to the package's testdata/fuzz and fails the step.
fuzzsmoke:
	@targets=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$targets"; exit 1; }; \
		echo "$$targets" | grep -q '^Fuzz' || { echo "fuzzsmoke: no fuzz target found"; exit 1; }; \
		echo "$$targets" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
		while read -r pkg fz; do \
			echo "$$pkg $$fz"; \
			$(GO) test -run '^$$' -fuzz "^$$fz\$$" -fuzztime 5s -fuzzminimizetime 1s "$$pkg" || exit 1; \
		done

# The micro-benchmarks at the default budget, for reading while you work,
# over every package, as `race` runs: a package that gains a benchmark is
# covered the day it gains it, with no list to maintain.
# They gate nothing: allocation ceilings are ordinary tests in `go test
# ./...`, and timing verdicts come from numabench (`sh bench/run.sh`, see
# bench/README.md), which compares a change with its parent.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One-iteration pass over every benchmark: catches benchmark rot (a missing
# benchmark, setup errors, API drift) without paying for stable timings.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x -count 1 ./...

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
# (machine, size) BenchmarkEngineTrain covers, at -cpu 1: numabench trains
# inside its set-up at GOMAXPROCS 1, where setup_s is measured and where the
# pair search's bound stops the most candidates;
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
	$(GO) test -run '^$$' -bench '^BenchmarkEngineTrain$$' -benchtime 50x -count 1 -cpu 1 \
		-cpuprofile train.prof -o repro.test .
	$(GO) test -run '^$$' -bench '^BenchmarkClusterAdmitResident$$/^machines=64$$/^best-predicted$$' \
		-benchtime 1000000x -count 1 -cpuprofile admit.prof -memprofile admit.mem -o repro.test .
	$(GO) test -run '^$$' -bench 'BenchmarkRecovery' -benchtime 2s -count 1 \
		-cpuprofile recovery.prof -o wal.test ./internal/wal/
	@echo "wrote cpu.prof, train.prof, admit.prof, admit.mem and recovery.prof (inspect with: go tool pprof repro.test cpu.prof; go tool pprof repro.test train.prof; go tool pprof repro.test admit.prof; go tool pprof -sample_index alloc_space repro.test admit.mem; go tool pprof wal.test recovery.prof)"

# Report-only: not a CI step, gates nothing. Which library code does no shipped
# program reach? Builds paperrepro, clustersim and every example with statement
# coverage over the whole module, runs each once into one GOCOVERDIR (the full
# paperrepro and its three subcommands; clustersim -quick under each policy,
# under a crash with a restart, and under a partition beside a slow machine
# with spreading; all five examples), adds the numaplaced and loadgen tests
# (they drive the daemon's own run over HTTP, so no daemon is started here),
# merges the data and prints every function at 0.0 % and the total. ~1 min.
bincover:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		mkdir "$$dir/cov" "$$dir/bin" "$$dir/ex" && export GOCOVERDIR="$$dir/cov" && \
		$(GO) build -cover -coverpkg=repro/... -o "$$dir/bin/" ./cmd/paperrepro ./cmd/clustersim && \
		$(GO) build -cover -coverpkg=repro/... -o "$$dir/ex/" ./examples/... && \
		"$$dir/bin/paperrepro" > /dev/null && \
		"$$dir/bin/paperrepro" placements -packings > /dev/null && \
		"$$dir/bin/paperrepro" train -trees 5 -out "$$dir/model.json" > /dev/null && \
		"$$dir/bin/paperrepro" pack > /dev/null && \
		for p in first-fit least-loaded best-predicted; do \
			"$$dir/bin/clustersim" -quick -policy $$p > /dev/null 2>&1 || exit 1; done && \
		"$$dir/bin/clustersim" -quick -crash amd-0@300 -restart 500 > /dev/null 2>&1 && \
		"$$dir/bin/clustersim" -quick -partition intel-1@100:300 -slow amd-0@200 -spread > /dev/null 2>&1 && \
		for ex in "$$dir"/ex/*; do "$$ex" > /dev/null || exit 1; done && \
		$(GO) test -count 1 -cover -coverpkg=repro/... ./cmd/numaplaced ./cmd/loadgen -args -test.gocoverdir="$$dir/cov" > /dev/null && \
		$(GO) tool covdata textfmt -i "$$dir/cov" -o "$$dir/cov.txt" && \
		$(GO) tool cover -func "$$dir/cov.txt" | awk '$$NF == "0.0%" { print } /^total:/ { total = $$0 } END { print total }'

ci: $(CI_STEPS)
