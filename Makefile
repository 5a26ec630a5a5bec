GO ?= go

.PHONY: all build test race race-hot race-obs vet lint lint-vet lint-audit verify bench-smoke bench-whole-smoke fuzz-smoke

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine/session concurrency layer is only considered verified under
# the race detector; `verify` is the gate CI and pre-commit should run.
race:
	$(GO) test -race ./...

# Focused race pass over the packages with lock-free hot paths (the obs
# atomics and the engine's snapshot/cache machinery) — cheap enough to
# run on every edit, unlike the full `race` sweep. The second line loops
# the cost-row readers-beside-a-writer test (every row reply checked
# against a fresh pass on its epoch); the third is the page-sharing half
# of snapshot immutability: readers on a pinned
# snapshot while later epochs copy the pages they write (these tests need
# the compiled graph, so they sit in internal/core's external test
# package), and every read-only query on one compiled graph while
# kshortest and protect copy its pages into their private clones.
race-hot:
	$(GO) test -race ./internal/obs ./internal/engine
	$(GO) test -race -count=5 -run 'ConcurrentCostRows' ./internal/engine
	$(GO) test -race -run 'SnapshotIsolation|LongChain|ConcurrentMixedOperations' ./internal/core

# vet also fails on unformatted files: gofmt -l prints offenders, and
# any output is an error.
vet:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Domain-aware analyzers (internal/analysis) run via the wdmlint driver.
# Exit 1 means findings; fix them or justify with //lint:ignore. The
# nested benchmark/ module is outside ./..., so it is linted as a
# directory: it type-checks against this tree's API, which catches a
# break in what the whole-stack benchmark imports.
lint:
	$(GO) run ./cmd/wdmlint ./...
	$(GO) run ./cmd/wdmlint -dir benchmark

# Same suite driven by `go vet -vettool`, which gives per-package result
# caching and vet's diagnostic plumbing. Functionally equivalent to
# `lint`; kept separate so CI can choose either entry point.
lint-vet:
	$(GO) build -o bin/wdmlint ./cmd/wdmlint
	$(GO) vet -vettool=bin/wdmlint ./...

# Suppression audit: every //lint:ignore must carry a known analyzer
# and a written reason, and the total count is pinned so it can only
# grow deliberately (bump LINT_SUPPRESSIONS_MAX in the same commit that
# adds a justified directive).
LINT_SUPPRESSIONS_MAX ?= 6
lint-audit:
	$(GO) run ./cmd/wdmlint -audit -audit-max $(LINT_SUPPRESSIONS_MAX)

verify: build vet test race-hot race bench-whole-smoke

# Focused race pass over the span-tracing/self-observation layer and
# its TCP consumer — the flight recorder's ring and the obs.Monitor
# (frame ring, rule checks, the bundle written on failing, including
# the overload e2e that drives health to failing) and the serve request
# lifecycle are only considered verified under the race detector, run
# twice to vary goroutine interleavings.
race-obs:
	$(GO) test -race -count=2 ./internal/obs ./internal/serve

# Fast benchmark smoke pass for CI: runs the route / mutation / Dijkstra
# benchmarks briefly with -benchmem so an accidental allocation or a
# gross regression on the hot paths is visible in the job log without
# paying for a full measurement run. BenchmarkRoutePoint runs once per
# search mode (plain, astar — the server default) and reports
# settled/op and physpops/op beside ns/op, then astar/row=absent|resident
# at n=300 and n=100: the same query with no bound row to read and with
# every destination's row resident (equal settled/op, physpops/op 0, about
# half the ns); BenchmarkRouteFreshEpoch is that query after a churn slot,
# where rows=second-ask (served) must read what rows=none does with
# rows/op ≈ 0, beside the two shortcuts measured and left out (every-miss,
# layout: EXPERIMENTS.md X22); BenchmarkRouteBatch sweeps
# requests-per-source r ∈ {1..32} × {cold, resident rows} on an astar engine at
# n=100 and n=300 with trees/op and points/op, so the batch rule's
# break-even (core.Aux.TreePays, 8 on both) sits where the cold rows
# switch from points to trees; BenchmarkCostsFrom is one single-source
# cost read by what answers it (row=resident: a few hundred ns and 0
# allocs; cold: the pass and its row); BenchmarkSessionExec is one
# `route` through Session.Exec bare and under the default recorder, whose
# rows should differ by about a microsecond and by no allocation, then
# `routefrom` and a 16-pair `batch` at n=100 with cost rows resident (a
# lookup and the encode) vs absent (a pass; 16 point queries);
# BenchmarkMonitorSample is one obs.Monitor tick (registry snapshot,
# push, rule check); BenchmarkRouteProtected/opts={paper,served} and
# BenchmarkKShortest/K={2,5,10} are the two verbs that are not point
# queries, at n=300 (a served protect: ≈ 26 allocs, no compile). Not a
# stable-numbers benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Route|KShortest|CostsFrom|AllocateRelease|Dijkstra|AStar|MonitorSample|HeapSearchMix|SessionExec' \
		-benchtime 100ms -benchmem \
		./internal/heap/binheap ./internal/graph ./internal/core ./internal/engine ./internal/obs ./internal/serve

# The whole-stack benchmark (BENCHMARK.json, benchmark/) is a nested
# module, so the root `go build ./... && go test ./...` never compiles
# it: an API break against the symbols it imports would otherwise
# surface only when the benchmark pipeline runs. Vet and test it, then
# run every mode once at tiny op counts (checks replies, measures
# nothing).
bench-whole-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	bash benchmark/run.sh -smoke

# Short fuzzing pass over every fuzz target (go test -fuzz takes one
# target per invocation, hence the list). 30s each is a smoke budget:
# it replays the corpus and gives the generator a brief run, catching
# shallow parser/engine regressions without a dedicated fuzz farm.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzProtocolParse$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaChurn$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzGoalDirected$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalNetwork$$' -fuzztime $(FUZZTIME) ./internal/wdm
	$(GO) test -run '^$$' -fuzz '^FuzzEngineAllocateRelease$$' -fuzztime $(FUZZTIME) ./internal/wdm
	$(GO) test -run '^$$' -fuzz '^FuzzSpanEncode$$' -fuzztime $(FUZZTIME) ./internal/obs
