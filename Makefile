GO ?= go

.PHONY: all build test race race-hot race-obs vet lint verify bench-smoke bench-whole-smoke fuzz-smoke loc

all: verify

build:
	$(GO) build ./...

# A self-deadlock shows up as a hung test: the timeout turns it into a
# failure that names the running test within minutes, not go test's
# default ten. internal/core, the slowest package, takes about 30 s.
test:
	$(GO) test -timeout 3m ./...

# The concurrency layer (the engine and the facade's circuit admission,
# admission.go) is only considered verified under the race detector;
# `verify` is the gate CI and pre-commit should run. The timeout bounds
# each package's test binary: internal/core, the slowest under -race,
# took 142-162 s over three runs on two cores, and 8m is about 3x that.
race:
	$(GO) test -race -timeout 8m ./...

# Focused race pass over the packages with lock-free hot paths (the obs
# atomics and the engine's snapshot/cache machinery) — cheap enough to
# run on every edit, unlike the full `race` sweep. The second line loops
# the cost-row and route-memo readers-beside-a-writer tests (every row
# reply checked against a fresh pass on its epoch, every route against a
# fresh search on its epoch); the third is the page-sharing half
# of snapshot immutability: readers on a pinned
# snapshot while later epochs copy the pages they write (these tests need
# the compiled graph, so they sit in internal/core's external test
# package), and every read-only query on one compiled graph while
# kshortest and protect copy its pages into their private clones.
race-hot:
	$(GO) test -race ./internal/obs ./internal/engine
	$(GO) test -race -count=5 -run 'ConcurrentCostRows|ConcurrentRouteMemo' ./internal/engine
	$(GO) test -race -run 'SnapshotIsolation|LongChain|ConcurrentMixedOperations' ./internal/core

# vet also fails on unformatted files: gofmt -l prints offenders, and
# any output is an error.
vet:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Domain-aware analyzers (internal/analysis) run via the wdmlint driver.
# Exit 1 means findings; fix them (there is no suppression directive).
# The nested benchmark/ module is outside ./..., so it is linted as a
# directory: it type-checks against this tree's API, which catches a
# break in what the whole-stack benchmark imports.
lint:
	$(GO) run ./cmd/wdmlint ./...
	$(GO) run ./cmd/wdmlint -dir benchmark

verify: build vet test race-hot race bench-whole-smoke

# Focused race pass over the span-tracing/self-observation layer and
# its TCP consumer — the flight recorder's ring and the obs.Monitor
# (frame ring, rule checks, the bundle written on failing, including
# the overload e2e that drives health to failing) and the serve request
# lifecycle — including the conn type's deadlines, where
# TestTCPWriteTimeoutDropsStalledReader drops a client that stops
# reading while another connection is served — are only considered
# verified under the race detector, run twice to vary goroutine
# interleavings. Every TCP test with a tracer ends by asserting the
# tracer's span lifecycle misuse count (Tracer.Misuses) is 0, as does
# TestTracerConcurrentRecordAndRead.
race-obs:
	$(GO) test -race -count=2 ./internal/obs ./internal/serve

# Fast benchmark smoke pass for CI: runs the route / mutation / Dijkstra
# benchmarks briefly with -benchmem so an accidental allocation or a
# gross regression on the hot paths is visible in the job log without
# paying for a full measurement run. BenchmarkRoutePoint runs once per
# search mode (plain, astar — the server default — both on the binary
# engine, so settled/op counts X-shore pops in each) and reports
# settled/op, queued/op (heap writes), relaxed/op (arcs scanned) and
# physpops/op beside ns/op — astar's dive ceiling shows in queued/op,
# ≈ 20 against 185 without it at n=300, never in settled/op — then
# astar/row=absent|resident at n=300 and n=100: the same query with no
# bound row to read and with every destination's row resident (equal
# settled/op and queued/op, physpops/op 0, about half the ns);
# BenchmarkRouteFreshEpoch is that query after a churn slot, with the
# same four counts, where rows=second-ask (served) must read what
# rows=none does with rows/op ≈ 0, beside the two shortcuts measured and
# left out (every-miss, layout: EXPERIMENTS.md X22); BenchmarkRouteBatch sweeps
# requests-per-source r ∈ {1..32} × {cold, resident rows} on an astar engine at
# n=100 and n=300 with trees/op and points/op, so the batch rule's
# break-even (core.Aux.TreePays, 8 on both) sits where the cold rows
# switch from points to trees; BenchmarkCostsFrom is one single-source
# cost read by what answers it, its n texts appended (row=resident: a
# lookup and a copy, a couple of µs and 0 allocs; row=first-hit: the
# render once per row, 3 allocs; cold: the pass written straight into
# its row, 1 alloc at either n — 6 meant the pass built a tree to drop);
# BenchmarkDeltaPublish is one delta publish at 250-Erlang steady state,
# a held path's channels freed or re-held (one λ per link): ≈ 7 / 19 /
# 23 µs, 4.3 / 9.0 / 12.0 KB and 12 / 16 / 18 objects on nsfnet / n=100
# / n=300 (5.0 / 11.0 / 14.2 KB when every layout λ of a changed link
# was re-emitted);
# BenchmarkSessionExec is one `route` through Session.Exec bare and
# under the default recorder, whose rows should differ by about a
# microsecond and by no allocation, once searching (memo=miss: a fresh
# epoch before each request) and once answered by the route memo
# (memo=hit: ≈ 1 µs bare and 2 allocs at either tier), then `routefrom`
# and a 16-pair `batch` at n=100 with cost rows resident (a lookup and
# a copy) vs absent (a pass; 16 point queries);
# BenchmarkMonitorSample is one obs.Monitor tick (registry snapshot,
# push, rule check); BenchmarkRouteProtected/opts={paper,served} and
# BenchmarkKShortest/K={2,5,10} are the two verbs that are not point
# queries, at n=300 (a served protect: ≈ 26 allocs, no compile);
# BenchmarkDijkstraSparse is one allocating full tree per queue kind on a
# random 2000-node digraph and, as its astar row, one pooled point query
# on it under the exact potential (0 allocs); BenchmarkNewAux/n={100,300,1000}
# is one full compile of G′ (18 allocs/op at every n: per structure, not
# per node) and BenchmarkEngineNew/n={100,300} the epoch-0 residual plus
# that compile under wdmserve's defaults (≈ 121 allocs; thousands mean
# the compile or the residual is built per node again). The last line
# is the root package's BenchmarkDistributed (E5): one dist.Route per op
# on the runtime's delivery loop, with msgs and rounds beside ns, B and
# allocs (≈ 1,242 allocs/op at n=100). Not a stable-numbers benchmark.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Route|KShortest|CostsFrom|AllocateRelease|DeltaPublish|Dijkstra|MonitorSample|HeapSearchMix|SessionExec|NewAux|EngineNew' \
		-benchtime 100ms -benchmem \
		./internal/heap/binheap ./internal/graph ./internal/core ./internal/engine ./internal/obs ./internal/serve
	$(GO) test -run '^$$' -bench 'Distributed' -benchtime 100ms -benchmem .

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
# FuzzProtocolParse records every input under a tracer, so each verb
# also runs the span API's lifecycle check (misuse count stays 0).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzProtocolParse$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaChurn$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzGoalDirected$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshalNetwork$$' -fuzztime $(FUZZTIME) ./internal/wdm
	$(GO) test -run '^$$' -fuzz '^FuzzEngineAllocateRelease$$' -fuzztime $(FUZZTIME) ./internal/wdm
	$(GO) test -run '^$$' -fuzz '^FuzzSpanEncode$$' -fuzztime $(FUZZTIME) ./internal/obs

# Non-test Go lines per package directory and in total, outside the
# nested benchmark/ module and testdata/ fixtures: the size the
# simplicity work tracks (ROADMAP item 8 compares obs with engine).
# Prints only; gates nothing.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' \
		-not -path '*/testdata/*' -not -path './.git/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'
