GO ?= go

.PHONY: build fmt-check vet test race fuzz-smoke allocs lint check bench bench-smoke bench-check bench-module load-smoke examples

build:
	$(GO) build ./...

# fmt-check fails on any Go file gofmt would rewrite. The analyzers'
# testdata fixtures are skipped: some keep deliberate layouts.
fmt-check:
	@out=$$(gofmt -l . | grep -v '/testdata/'); \
	if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# fuzz-smoke runs each differential fuzzer for 30s: the slab-pruned
# Timeline and BWTimeline kernels against their linear references, bit
# for bit, the schedule JSON encoder against the encoding/json
# reference, byte for byte, the graph and topology decoders against
# their encoding/json references, accept set and result, the
# block-restricted Dijkstra route search against the unrestricted one,
# route, label and error, with every forced pair's brute-force count,
# and every pair's BFS route from the Router's trees against the
# per-pair reference search. -fuzzminimizetime 0 turns off the minimization of
# each new-coverage input, which by default runs up to 60s with no
# executions counted and took most of a 30s budget; a failing input is
# then written out as found, not minimized.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzTimelineDifferential -fuzztime 30s -fuzzminimizetime 0 ./internal/linksched
	$(GO) test -run '^$$' -fuzz FuzzBWTimelineDifferential -fuzztime 30s -fuzzminimizetime 0 ./internal/linksched
	$(GO) test -run '^$$' -fuzz FuzzScheduleJSON -fuzztime 30s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReadGraph -fuzztime 30s -fuzzminimizetime 0 ./internal/graphio
	$(GO) test -run '^$$' -fuzz FuzzReadTopology -fuzztime 30s -fuzzminimizetime 0 ./internal/graphio
	$(GO) test -run '^$$' -fuzz FuzzDijkstraRoute -fuzztime 30s -fuzzminimizetime 0 ./internal/network

# allocs runs the allocation tests verbose, so a regression is named:
# warm engine requests under their ceiling, the ledger kernels and the
# Router's searches at zero.
allocs:
	$(GO) test -count=1 -run 'AllocationFree|SteadyStateAllocs' -v ./internal/...

lint:
	$(GO) run ./cmd/edgelint ./...

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

# examples runs every example once. Each verifies the schedules it
# builds and exits non-zero on failure, which go build alone would
# never notice.
examples:
	@for d in examples/*/; do \
		d=$${d%/}; echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# check mirrors the CI pipeline (.github/workflows/ci.yml).
check: build fmt-check vet test race fuzz-smoke allocs lint bench-smoke bench-check bench-module load-smoke examples
