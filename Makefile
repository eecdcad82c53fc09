GO ?= go

.PHONY: build vet test race lint lint-self check bench bench-smoke bench-check bench-module load-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

lint:
	$(GO) run ./cmd/edgelint ./...

# lint-self runs the analyzers over their own implementation and the
# driver, so the lint framework holds itself to the repo invariants.
lint-self:
	$(GO) run ./cmd/edgelint ./internal/lint/... ./cmd/edgelint

# bench runs the full suite 5 times, writes the next BENCH_<n>.json
# snapshot, and prints the delta against the previous one (~15 min).
bench:
	$(GO) run ./cmd/benchdiff -run

# bench-smoke compiles and runs every benchmark exactly once — a fast
# CI guard that the benchmark suite itself stays green.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .

# bench-check re-runs the gated macro benchmarks (a few seconds each)
# and fails on any regression beyond the noise threshold versus the
# latest committed BENCH_<n>.json — the non-flaky smoke gate.
bench-check:
	$(GO) run ./cmd/benchdiff -check -count 3 -benchtime 5x

# bench-module vets and tests the end-to-end benchmark in bench/, its
# own Go module built against this checkout (replace repro => ../), so
# an API change that breaks the harness fails here rather than at the
# next benchmark run. -short skips the workloads that build edgeschedd.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# load-smoke starts edgeschedd on a small topology, drives it with
# edgeload for a few seconds, and fails on any request error, zero
# throughput, or an unclean drain.
load-smoke:
	./scripts/load_smoke.sh

# check mirrors the CI pipeline (.github/workflows/ci.yml).
check: build vet test race lint lint-self bench-check bench-module load-smoke
