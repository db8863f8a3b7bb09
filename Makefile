# Tier-1 gate plus the repo's own static verifier. `make check` is what
# CI (and every PR) must pass.

GO ?= go

.PHONY: check fmt vet vet-analyzers build test race arch conformance lint cover fuzz-smoke mutate docs bench-flow bench-device bench-warm bench-harness benchmark benchmark-compare trace-demo serve-smoke serve-smoke-faults serve-smoke-warm serve-smoke-fleet serve-smoke-trace

check: fmt vet vet-analyzers build race arch conformance test lint cover fuzz-smoke serve-smoke serve-smoke-faults serve-smoke-warm serve-smoke-fleet serve-smoke-trace

fmt:
	@out=$$(gofmt -l cmd internal examples *.go); \
	if [ -n "$$out" ]; then echo "gofmt needed in:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own analyzers (cmd/vfpgavet): ledger-only metrics writes,
# wall-clock use in deterministic packages, error-string matching,
# exposition hygiene, map-iteration leaks, lock protocol, downward-only
# package layering, test-only declarations. Suppress a finding with
# `//vfpgavet:ignore <analyzers> -- reason`.
vet-analyzers:
	$(GO) run ./cmd/vfpgavet ./...

build:
	$(GO) build ./...

# The race gate covers the concurrency-bearing packages: the parallel
# experiment runner (bench), the compile cache and its flows (compile),
# the fan-out of a set's compiles (core), the one bounded fan-out both
# run on and the one memo and free list under the caches and working
# sets (flat), the service daemon (serve), the fleet scheduler
# (fleet), the stages whose working arrays a flow
# carries from goroutine to goroutine (the optimizer in netlist, techmap,
# place, route), and the simulation layers they drive — the board stack
# (baseline) runs on every board worker goroutine, the event kernel (sim)
# with its one callback shape under bench.Run's parallel workers — and
# the shared circuit library (netlist) with the spec builder that reads
# it from every worker, the device (fabric) whose check every board's
# worker runs on a working set it takes from and gives back to a
# flat.FreeList, and the audit (lint) that calls it. The second
# run repeats the tests of orderings between goroutines (a failed job is
# counted before its done channel closes; every queued-work charge is
# released, whichever worker the job leaves), the test that a live pool
# and fleet.Simulate place one stream alike, the test that two boards
# run one cached task set at once, and the canary that a delivered
# result outlives the jobs whose stacks a board renews in its memory;
# the harness's free list of dead stacks and of F10's replay states,
# which rival goroutines take from and give back to while one sweep
# point or one replay runs; and flat's memo, whose waiters park on one
# build, and free list, whose values go from holder to holder; and the
# strict JSON decoders rival goroutines take from and give back to their
# free list between decodes that fail or leave bytes behind: once is not
# evidence.
race:
	$(GO) test -race ./internal/sim/... ./internal/netlist/... ./internal/workload/... ./internal/core/... ./internal/baseline/... ./internal/hostos/... ./internal/bench/... ./internal/flat/... ./internal/fabric/... ./internal/compile/... ./internal/techmap/... ./internal/place/... ./internal/route/... ./internal/lint/... ./internal/serve/... ./internal/fleet/... ./internal/loadgen/... ./cmd/vfpgaload/...
	$(GO) test -race -count 200 -run 'TestFailedJobCountedBeforeDone|TestQueuedWorkConserved|TestPoolAndSimulateAgree|TestBoardsShareCachedSet|TestDeliveredResultOutlivesBoard|TestStackFreeListConcurrent|TestReplayFreeListConcurrent|TestMemoSingleflight|TestFreeListConcurrent|TestStrictDecodersConcurrent' ./internal/serve/ ./internal/bench/ ./internal/flat/ ./internal/workload/

test:
	$(GO) test ./...

# Determinism off the default build: the packages whose outputs are
# pinned byte for byte (strip digests, manager digests, the experiment
# tables, the fleet's rows, the recorder's quantiles) under a 32-bit
# target, where int is 32 bits and int64 aligns to 4, and under
# GOAMD64=v3, where the compiler may fuse a multiply and an add into one
# rounding; the device's column blocks with the audit that scans them,
# whose scan-order index is column times rows plus row; and the task
# program's op, whose size is pinned per word size, with the set digests
# of the programs built from it; and the arithmetic that carves records
# from their arrays (flat). About 15 s each on two cores.
ARCH_PKGS = ./internal/compile/ ./internal/core/ ./internal/flat/ ./internal/bench/ ./internal/fleet/ ./internal/place/ ./internal/route/ ./internal/stats/ ./internal/fabric/ ./internal/lint/ ./internal/hostos/ ./internal/workload/
arch:
	GOARCH=386 $(GO) test $(ARCH_PKGS)
	GOAMD64=v3 $(GO) test $(ARCH_PKGS)

# Lint the whole circuit library (netlists + compiled bitstreams).
lint:
	$(GO) run ./cmd/vfpgalint

# The hostos.FPGA conformance suite, the golden merged-timeline
# determinism test, the pinned manager digests, the residency-table
# property test and the relocation-escalation contract, explicitly under
# -race (they also run in `race` and `test`; this target pins them as a
# named gate).
conformance:
	$(GO) test -race -run 'TestConformance|TestGoldenTimeline|TestManagerDigestsPinned|TestLedgerResidency|TestRelocateEscalation' ./internal/core/

# Coverage: per-package summary, then a combined core+baseline+serve
# profile gated against the committed baseline — new subsystems must
# arrive with tests, or the gate trips.
cover:
	$(GO) test -cover ./internal/...
	@$(GO) test -coverprofile=.cover.out ./internal/core/ ./internal/baseline/ ./internal/serve/ ./internal/loadgen/ > /dev/null
	@total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	base=$$(cat COVERAGE_BASELINE); \
	echo "combined core+baseline+serve coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit (t + 0 < b + 0) ? 1 : 0 }' \
		|| { echo "coverage dropped below the committed baseline"; rm -f .cover.out; exit 1; }
	@rm -f .cover.out

# Ten seconds of native fuzzing per target: enough to shake out crashes
# in the strict decoders without stalling CI. Corpora live under each
# package's testdata/fuzz/.
fuzz-smoke:
	$(GO) test ./internal/workload/ -run '^$$' -fuzz FuzzSpecDecode -fuzztime 10s
	$(GO) test ./internal/workload/ -run '^$$' -fuzz FuzzTraceDecode -fuzztime 10s
	$(GO) test ./internal/bitstream/ -run '^$$' -fuzz FuzzBitstreamParse -fuzztime 10s

# The mutation gate: every mutant in scripts/mutants.tsv (small semantic
# edits to the flat-array idioms — a scratch array's clear, record
# carving and its rewind, a fan-out's first error, the topological
# sort's FIFO and its seeding from index 0 (order-lifo,
# order-seeds-from-one), the memo's LRU order, eviction, weight bound
# and dropped errors (memo-hit-not-mru, memo-evicts-newest,
# memo-keeps-heavy, memo-keeps-error) and the free list's stack order
# and bound (freelist-fifo, freelist-ignores-bound) — the netlist check, the one statement of a
# netlist's structural rules (validate-skips-fanin-range,
# validate-allows-output-read, validate-allows-duplicate-port,
# topo-accepts-cycle), bitstream.Validate, the one statement of a
# bitstream's (validate-skips-overlap, validate-ffcells-unchecked,
# validate-allows-unconfigured-read, validate-allows-undriven-output),
# the ledger, the
# renewal of a warm board's engines and host OS, the renewal of its
# manager, which core.TestRenewedManagerEqualsFresh must catch (a column
# map that keeps the last job's spans, a paged loader that keeps its
# users or does not reseed its random stream:
# region-renew-keeps-spans, paged-renew-keeps-users,
# paged-renew-keeps-stream), the pin binding, the
# state and strip tables, the task kernel, the region map and its Check,
# the one statement of a column map's rules (regionmap-check-allows-overlap,
# regionmap-check-allows-leak, regionmap-check-allows-uncoalesced), the host OS, the
# daemon's pool and admission, the fleet's queueing kernel, the
# workload spec and the keep rule of the strict decoders that read it
# (decoder-kept-after-error, decoder-kept-with-leftover,
# decoder-size-cap-ignored), the spec's set cache, a set's spawn and its request table
# (compute ops carry none; each paged reference has its own), the CAD
# stages' reused results and work counts, the placer's net numbering
# and sink slots the router reads (nets-by-driver, sinkslot-off-by-one),
# the forward passes of LUT depth and the critical path
# (lutdepth-one-pass, critpath-one-pass), the router's stop rule and its
# heap's pick of a child on a tie, the latency recorder's window, the
# device's column blocks, the amorphous manager's caching, a synthetic
# pool's distinct names, Device.Check, the one statement of a configured
# device's rules, which the evaluator and the end-of-job audit share
# (check-skips-last-column, comb-order-registered-edge,
# check-allows-unconfigured-read, check-allows-noninput-pin-read,
# check-skips-output-pins), the experiment harness's row fill and
# strip footprint, its free list of dead stacks, keyed by shape, the
# results read off a stack or a replay state before it goes back, which
# the package's tests scribble over once given
# (freelist-ignores-geometry, result-read-after-give,
# replay-read-after-give), a replay state renewed with its nodes' queues
# (replay-renew-keeps-queue), F6's cuts of mul8 built once per k
# (f6-cut-ignores-k), and a stack renewed only to its own engine count
# (stack-renewed-across-engine-counts)) is applied
# to a scratch copy of the tree and must fail its packages' tests; each
# is printed killed, with the failing tests grouped as digest, golden,
# conformance or unit, or survived. A survivor, or an entry whose text
# no longer appears exactly once, fails the run. Minutes long, so not
# part of `make check`; run one mutant with `scripts/mutate.sh NAME`.
mutate:
	@GO="$(GO)" bash scripts/mutate.sh

# Regenerate the result tables EXPERIMENTS.md carries between
# `<!-- table:ID -->` markers: the experiment tables from bench.Run at
# seed 1, the Load table from the committed load record, the QoR table
# from strip compiles of the registry, after printing how the computed
# QoR compares with the committed one (compile.CompareQoR). One package
# at a time: all three rewrite the same file. The README excerpts of
# vfpgasim output are checked against their goldens, not rewritten: an
# excerpt is a chosen subset. `go test ./...` runs all four as plain
# checks, so this target is for after an intended change to a table, not
# part of `check`.
docs:
	$(GO) test ./internal/bench -run '^TestExperimentsTables$$' -update
	$(GO) test ./internal/loadgen -run '^TestLoadTable$$' -update
	$(GO) test ./internal/compile -run '^TestQoRTable$$' -update -v
	$(GO) test ./cmd/vfpgasim -run '^TestReadmeExcerpts$$'

# The CAD flow alone, before and after a change to it: optimizing mul8,
# then mapping, placing, routing and the whole strip compile over every
# registry circuit, div16 apart (it is three quarters of the pass), and
# the four largest circuits that fit a board compiled one after another
# and as one set fanned out over the compile flows. Ten fixed iterations,
# five readings each, bytes and allocations beside the time, so each
# leg's share of a cold compile shows; seconds, not the repo benchmark's
# minutes. Wall-clock bound, so not part of `make check`.
bench-flow:
	$(GO) test -run '^$$' -bench 'Benchmark((Map|Place|Route|Strip)Registry|OptimizeMul8|CompileSetCold)' -benchmem -benchtime 10x -count 5 ./internal/netlist/ ./internal/techmap/ ./internal/place/ ./internal/route/ ./internal/compile/ ./internal/core/

# The device layer alone, before and after a change to it: a new board,
# one strip download, the pin pool under eviction churn, one job's
# downloads through the residency ledger, Device.Check of a configured
# device, and a whole cold and warm job over them. Fixed
# iterations, five readings each, bytes and allocations beside the time.
# Wall-clock bound, so not part of `make check`.
bench-device:
	$(GO) test -run '^$$' -bench 'Benchmark(NewDevice|ApplyStrip|PinPool|LedgerLoadEvict|Check)$$' -benchmem -benchtime 100000x -count 5 ./internal/fabric/ ./internal/compile/ ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkJobColdVsWarm$$' -benchmem -benchtime 100x -count 5 ./internal/serve/

# The warm job path alone, before and after a change to it: building each
# builtin scenario's task set and finding one in the set cache, spawning
# and running a built set through the host OS, encoding a terminal status
# (plain and with its timeline), Device.Check, one /metrics
# scrape of a nine-board server, and a whole warm job over them. Fixed
# iterations, five readings each, bytes and allocations beside the time.
# Wall-clock bound, so not part of `make check`.
bench-warm:
	$(GO) test -run '^$$' -bench 'Benchmark(SpecBuild|SetCacheHit|SpawnRun|StatusEncode|Check|MetricsScrape)$$' -benchmem -benchtime 20000x -count 5 ./internal/workload/ ./internal/hostos/ ./internal/serve/ ./internal/fabric/
	$(GO) test -run '^$$' -bench 'BenchmarkJobColdVsWarm$$/warm' -benchmem -benchtime 2000x -count 5 ./internal/serve/

# The bookkeeping under a table regeneration, before and after a change
# to it: the fleet bake-off replay, the event kernel, and building,
# optimizing and segmenting mul8. Five readings each, allocations beside
# the time. Wall-clock bound, so not part of `make check`; the tables
# themselves are the repo benchmark's harness workload.
bench-harness:
	$(GO) test -run '^$$' -bench 'Benchmark(Bakeoff|ScheduleRun|BuildMul8|OptimizeMul8|SegmentMul8)$$' -benchmem -count 5 ./internal/fleet/ ./internal/sim/ ./internal/netlist/

# The repo benchmark (BENCHMARK.json, benchmark/README.md): all four
# workloads, both passes, into out/benchmark/result.json. Minutes long
# and wall-clock bound, so not part of `make check`. Compare two result
# files against BENCHMARK.json's bounds with
# `make benchmark-compare BASE=a.json NEW=b.json`.
benchmark:
	$(GO) run ./benchmark

benchmark-compare:
	@[ -n "$(BASE)" ] && [ -n "$(NEW)" ] || { echo "usage: make benchmark-compare BASE=a.json NEW=b.json"; exit 2; }
	$(GO) run ./benchmark -compare $(BASE) $(NEW)

# Render a merged scheduler+device timeline from the time-sharing example.
trace-demo:
	$(GO) run ./examples/timeshare

# The five service smokes share one driver, scripts/smoke.sh: build vfpgad
# and vfpgaload, boot the daemon on an ephemeral port with the first
# argument string, drive it with vfpgaload and the second ({addr} is the
# daemon's address), SIGTERM it and require a clean drain. vfpgaload
# exits nonzero on any 5xx, transport error, untyped failed job or
# lint-dirty result, and on whatever its -expect-* flags demand; vfpgad
# exits nonzero if the drain does not complete.
SMOKE = GO="$(GO)" bash scripts/smoke.sh $@

# 200 jobs, 8 concurrent closed-loop clients, lint-checked results.
serve-smoke:
	@$(SMOKE) "-boards 2 -managers dynamic,partition -rate 0" \
		"-target http://{addr} -requests 200 -concurrency 8 -workload synthetic -check-lint"

# The same smoke under a pinned fault campaign: with this plan and three
# boards, exactly one board's derived stream escalates (injectors are
# rebuilt per job, so board outcomes are deterministic), its jobs rerun
# on the healthy boards, and the quarantine must be visible.
serve-smoke-faults:
	@$(SMOKE) "-boards 3 -managers dynamic -rate 0 -faults 'seed=1,retries=1,backoff=20us,config-error=0.13'" \
		"-target http://{addr} -requests 200 -concurrency 8 -workload synthetic -check-lint -allow-faults -expect-quarantine"

# The warm-board smoke: many jobs through one board per manager, so the
# board must serve the bulk of them on the hardware of its last job —
# overlay and merged included, which configure the device from each
# job's circuit set — and build on new hardware exactly once (a board
# with zero warm resets, or more than one cold, fails it). The amorphous
# board is the one live run of that manager: -check-lint audits the
# cached strips its jobs leave behind. One daemon a manager, not one
# daemon of five boards: unpinned jobs go where they finish first, and
# with synthetic estimates of 62 virtual ms on merged, 114 on amorphous
# and ~160 on the other three, the slow boards get a job only while
# merged and amorphous hold a queue. Twenty clients rarely make one, so
# a slow board could end on the one job of the opening burst, with no
# warm reset: 9 of 24 runs failed so on a 2-core box. Four clients a
# board: each queues.
serve-smoke-warm:
	@for m in dynamic partition overlay merged amorphous; do \
		$(SMOKE)/$$m "-boards 1 -managers $$m -rate 0" \
			"-target http://{addr} -requests 25 -concurrency 4 -workload synthetic -check-lint -expect-warm" || exit 1; \
	done

# The fleet smoke: one process serving 3 nodes x 2 boards behind the
# packing policy, 500 jobs sent by the loader to its one front-end,
# which routes them across the nodes. Node 1's boards run a
# deterministic always-escalate campaign, so the first job routed there
# quarantines the whole node mid-run; the fleet must re-route its jobs
# with zero untyped (or even typed) client-visible failures and end
# with node 1 out of the rotation.
serve-smoke-fleet:
	@$(SMOKE) "-nodes 3 -boards 2 -placement packing -managers dynamic -rate 0 -faults 'seed=1,retries=0,config-error@1' -fault-node 1" \
		"-target http://{addr} -requests 500 -concurrency 8 -workload multimedia -check-lint -expect-node-quarantine"

# The trace smoke: replay the committed golden trace (60 jobs, 3
# tenants, all five scenario families) open-loop against a live vfpgad
# at 4x recorded pace, with the committed SLO enforced on the virtual
# replay. The emitted CSV must be byte-identical to the committed golden
# (the wire-measured makespans reproduce the direct runner's exactly).
serve-smoke-trace:
	@$(SMOKE) "-boards 4 -rate 0" \
		"-target http://{addr} -trace internal/loadgen/testdata/golden_trace.json -pace 4 -slo 'p99<750ms' -check-lint -csv-out .smoke/results.csv -json-out .smoke/results.json" \
		"cmp -s .smoke/results.csv internal/loadgen/testdata/golden_results.csv || { echo 'trace CSV diverged from golden'; false; }"
