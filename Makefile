# Tier-1 gate plus the repo's own static verifier. `make check` is what
# CI (and every PR) must pass.

GO ?= go

.PHONY: check fmt vet vet-analyzers build test race conformance lint cover fuzz-smoke docs bench-flow bench-device bench-warm bench-harness benchmark benchmark-compare trace-demo serve-smoke serve-smoke-faults serve-smoke-warm serve-smoke-fleet serve-smoke-trace

check: fmt vet vet-analyzers build race conformance test lint cover fuzz-smoke serve-smoke serve-smoke-faults serve-smoke-warm serve-smoke-fleet serve-smoke-trace

fmt:
	@out=$$(gofmt -l cmd internal examples *.go); \
	if [ -n "$$out" ]; then echo "gofmt needed in:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo's own analyzers (cmd/vfpgavet): ledger-only metrics writes,
# wall-clock use in deterministic packages, error-string matching,
# exposition hygiene, map-iteration leaks, lock protocol, downward-only
# package layering. Suppress a finding with
# `//vfpgavet:ignore <analyzers> -- reason`.
vet-analyzers:
	$(GO) run ./cmd/vfpgavet ./...

build:
	$(GO) build ./...

# The race gate covers the concurrency-bearing packages: the parallel
# experiment runner (bench), the compile cache and its flows (compile),
# the fan-out of a set's compiles (core), the service daemon (serve),
# the fleet scheduler (fleet), the stages whose working arrays a flow
# carries from goroutine to goroutine (the optimizer in netlist, techmap,
# place, route), and the simulation layers they drive — the board stack
# (baseline) runs on every board worker goroutine, the event kernel (sim)
# with both its callback shapes under bench.Run's parallel workers — and
# the shared circuit library (netlist) with the spec builder that reads
# it from every worker. The second run
# repeats the tests of orderings between goroutines (a failed job is
# counted before its done channel closes; every queued-work charge is
# released, whichever worker the job leaves) and the test that a live
# pool and fleet.Simulate place one stream alike: once is not evidence.
race:
	$(GO) test -race ./internal/sim/... ./internal/netlist/... ./internal/workload/... ./internal/core/... ./internal/baseline/... ./internal/hostos/... ./internal/bench/... ./internal/compile/... ./internal/techmap/... ./internal/place/... ./internal/route/... ./internal/serve/... ./internal/fleet/... ./internal/loadgen/... ./cmd/vfpgaload/...
	$(GO) test -race -count 200 -run 'TestFailedJobCountedBeforeDone|TestQueuedWorkConserved|TestPoolAndSimulateAgree' ./internal/serve/

test:
	$(GO) test ./...

# Lint the whole circuit library (netlists + compiled bitstreams + pages).
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

# Regenerate the result tables EXPERIMENTS.md carries between
# `<!-- table:ID -->` markers: the experiment tables from bench.Run at
# seed 1, the Load table from the committed load record. One package at
# a time: both rewrite the same file. The README excerpts of vfpgasim
# output are checked against their goldens, not rewritten: an excerpt is
# a chosen subset. `go test ./...` runs all three as plain checks, so this
# target is for after an intended change to a table, not part of `check`.
docs:
	$(GO) test ./internal/bench -run '^TestExperimentsTables$$' -update
	$(GO) test ./internal/loadgen -run '^TestLoadTable$$' -update
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
# one strip download, the pin pool under eviction churn, the fabric-config
# audit of a configured device, and a whole cold and warm job over them.
# Fixed iterations, five readings each, bytes and allocations beside the
# time. Wall-clock bound, so not part of `make check`.
bench-device:
	$(GO) test -run '^$$' -bench 'Benchmark(NewDevice|ApplyStrip|PinPool|FabricConfig)$$' -benchmem -benchtime 100000x -count 5 ./internal/fabric/ ./internal/compile/ ./internal/core/ ./internal/lint/
	$(GO) test -run '^$$' -bench 'BenchmarkJobColdVsWarm$$' -benchmem -benchtime 100x -count 5 ./internal/serve/

# The warm job path alone, before and after a change to it: building each
# builtin scenario's task set, encoding a terminal status (plain and with
# its timeline), the fabric-config audit, and a whole warm job over them.
# Fixed iterations, five readings each, bytes and allocations beside the
# time. Wall-clock bound, so not part of `make check`.
bench-warm:
	$(GO) test -run '^$$' -bench 'Benchmark(SpecBuild|StatusEncode|FabricConfig)$$' -benchmem -benchtime 20000x -count 5 ./internal/workload/ ./internal/serve/ ./internal/lint/
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

# The warm-board smoke: many jobs through few boards, so every board
# must serve the bulk of them on the hardware of its last job — overlay
# and merged included, which configure the device from each job's
# circuit set — and build on new hardware exactly once (any board with
# zero warm resets, or more than one cold, fails it). The amorphous
# board is the one live run of that manager: -check-lint audits the
# cached strips its jobs leave behind. Four clients a board: the opening
# burst queues on every board.
serve-smoke-warm:
	@$(SMOKE) "-boards 5 -managers dynamic,partition,overlay,merged,amorphous -rate 0" \
		"-target http://{addr} -requests 125 -concurrency 20 -workload synthetic -check-lint -expect-warm"

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
