# Developer entry points. The benchmarks regenerate paper artefacts, so
# one iteration (-benchtime=1x) per family is a complete, deterministic
# simulation; raise BENCHTIME for statistically stable ns/op.
SHELL := /bin/bash
BENCHTIME ?= 1x
# The internal/sim and internal/sim/pdes microbenchmarks are
# nanosecond-scale and batched, so one iteration only measures pool
# warm-up; they get a real iteration count while the artefact benchmarks
# stay at one full simulation each.
SIM_BENCHTIME ?= 100000x
# COUNT repeats every benchmark; benchjson then records the medians.
COUNT     ?= 1
BENCH     ?= .
BENCH_OUT ?= BENCH_PR25.json

.PHONY: test race lint bench bench-json quick

test:
	go build ./... && go test ./...

# lint runs simlint, the determinism static-analysis suite
# (internal/lint): maprange, wallclock, globalrand, goleak over the
# whole tree. CI's lint job runs this plus gofmt -l and go vet.
lint:
	go run ./cmd/simlint ./...

# race runs the whole tree under the race detector except the packages
# that are too slow under its ~10x slowdown (times on the CI-class
# container):
#   repro/cmd/uschedsim         ~6.1 min  end-to-end scenario smoke runs
#   repro/internal/experiments  ~3.6 min  full figure/table sweep drivers
#   repro/internal/workloads/md ~2.1 min  MD ensemble integration runs
#   repro/internal/lint         ~1.0 min  single-threaded static analysis;
#                                         TestTreeIsClean type-checks the module
# Their logic still runs race-free in `make test`, and the scenario
# machinery they drive is covered here through its own packages
# (sim, kernel, harness, load, cluster, workloads/{matmul,inference,...}).
RACE_EXCLUDE := repro/cmd/uschedsim repro/internal/experiments repro/internal/workloads/md repro/internal/lint
race:
	go test -race $$(go list ./... | grep -Fxv $(foreach p,$(RACE_EXCLUDE),-e $(p)))

quick:
	go run ./cmd/uschedsim all -quick

# bench runs every benchmark family once (plus the engine
# microbenchmarks at a steady-state iteration count) and keeps the raw
# text.
bench:
	set -o pipefail; \
	go test -bench=$(BENCH) -benchtime=$(BENCHTIME) -count=$(COUNT) -benchmem -run='^$$' \
		$$(go list ./... | grep -v -e '/internal/sim$$' -e '/internal/sim/pdes$$') | tee bench.txt && \
	go test -bench=$(BENCH) -benchtime=$(SIM_BENCHTIME) -count=$(COUNT) -benchmem -run='^$$' \
		./internal/sim ./internal/sim/pdes | tee -a bench.txt

# bench-json runs the tier-1 benchmarks and writes the machine-readable
# perf trajectory (ns/op + allocs/op + sim metrics per benchmark). CI
# uploads the result as an artifact so PRs can be diffed for perf
# regressions.
bench-json: bench
	go run ./cmd/benchjson -in bench.txt -out $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"
