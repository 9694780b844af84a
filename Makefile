# Development entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race lint fmt vet letvet bench bench-update

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = formatting + go vet + the repo's own analyzer suite.
lint: fmt vet letvet

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Full analyzer suite, test files included, against the committed baseline
# (currently empty: zero findings enforced). Same invocation as the CI
# letvet job, minus the annotation/artifact plumbing.
letvet:
	$(GO) run ./cmd/letvet -tests -baseline letvet.baseline.json ./...

# Solver benchmarks as run by the CI bench job. The run is diffed against
# the committed BENCH_milp.json snapshot (deterministic counter drift means
# the solver trajectory changed); `make bench-update` refreshes the
# snapshot after an intentional kernel change.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkWarmStartBnB|BenchmarkFastSearchBnB' -benchtime 1x -count 3 . | tee bench.txt
	$(GO) run ./cmd/benchjson -diff BENCH_milp.json bench.txt

bench-update:
	$(GO) test -run '^$$' -bench 'BenchmarkWarmStartBnB|BenchmarkFastSearchBnB' -benchtime 1x -count 3 . | tee bench.txt
	$(GO) run ./cmd/benchjson -o BENCH_milp.json bench.txt
