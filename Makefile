GO ?= go

.PHONY: ci vet build test race fuzz-short fuzz bench bench-capture bench-smoke golden gate-patterns trace-determinism chaos overload obs obs-live arena testnet soak

## ci: the full pre-merge gate — vet, build, the check that every
## name-selected gate still selects tests, tests under the race
## detector, the fuzz seed corpora in short mode, the event-trace
## replication check, the chaos, overload, observability (sim and
## live), arena, testnet and soak gates, and the bench-capture smoke
## check.
ci: vet build gate-patterns race fuzz-short trace-determinism chaos overload obs obs-live arena testnet soak bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## fuzz-short: run every Fuzz* target's checked-in seed corpus only
## (no mutation) across all packages — fast, deterministic, suitable
## for CI.
fuzz-short:
	$(GO) test -run '^Fuzz' ./...

## fuzz: actually mutate for a bounded time (override FUZZTIME and
## FUZZTARGET/FUZZPKG to steer).
FUZZTIME ?= 30s
FUZZTARGET ?= FuzzMaxminConvergence
FUZZPKG ?= ./internal/maxmin
fuzz:
	$(GO) test -run '^$$' -fuzz $(FUZZTARGET) -fuzztime $(FUZZTIME) $(FUZZPKG)

## bench: run every benchmark in the repository, in every package that
## has one. Timings scroll by; use bench-capture to record them.
BENCHPKGS = . ./internal/admission ./internal/dataplane ./internal/des \
	./internal/eventbus ./internal/maxmin ./internal/obs \
	./internal/obs/live ./internal/reserve ./internal/sched \
	./internal/strategy ./internal/testnet ./internal/wire
bench:
	$(GO) test -bench . -benchmem -run '^$$' $(BENCHPKGS)

## bench-capture: run the fixed-iteration benchmark suite per area and
## append one trajectory entry to each BENCH_<area>.json at the repo
## root, printing a comparison against the previous entry (>20% moves
## are flagged). Set NOTE to label the entry.
NOTE ?=
bench-capture:
	$(GO) run ./cmd/benchcap -root . -note '$(NOTE)'

## bench-smoke: health check for the capture harness itself — one
## iteration per benchmark, parsed by benchx, written to a throwaway
## directory. No timing assertions; it only proves the harness and
## every captured benchmark still build, run and parse.
bench-smoke:
	$(GO) run ./cmd/benchcap -smoke

## The -run patterns of the name-selected gates below. gate-patterns
## checks each against its packages. The chaos, overload, obs and arena
## gates also run their family's row of the worker-count determinism
## test.
TRACE_RUN = TraceDeterminism
CHAOS_RUN = Chaos|TraceDeterminism/chaos
OVERLOAD_RUN = Overload|TraceDeterminism/overload
OBS_RUN = Obs|TraceDeterminism/obs
ARENA_RUN = Arena|TraceDeterminism/arena
LIVEOBS_RUN = TestLiveObs|TestDisabledPathZeroAlloc
TELEMETRY_RUN = Telemetry
LOOPBACK_RUN = TestLoopback
SOAK_RUN = TestSoak|TestNetfaultsEmptyPlan

## The golden tests `make golden` regenerates, each with its -update
## flag. gate-patterns checks these too, so a rename cannot leave
## `make golden` silently regenerating nothing.
CHAOS_GOLDEN = TestChaosTraceGolden
OVERLOAD_GOLDEN = TestOverloadTraceGolden
OBS_GOLDEN = TestObsSnapshotGolden
ARENA_GOLDEN = TestArenaSnapshotGolden
SOAK_GOLDEN = TestSoakGolden
LIVEOBS_GOLDEN = TestLiveObsSnapshotGolden

## gate-patterns: go test passes when a -run pattern matches nothing,
## so a renamed test could silently empty a gate. This lists the tests
## each gate pattern selects, package by package, and fails when any
## selects none.
gate-patterns:
	@check() { pat="$$1"; shift; for pkg in "$$@"; do \
		out=$$($(GO) test -list "$$pat" "$$pkg") || exit 1; \
		if ! printf '%s\n' "$$out" | grep -q '^\(Test\|Fuzz\|Example\)'; then \
			echo "gate-patterns: -run '$$pat' selects no tests in $$pkg"; exit 1; \
		fi; \
	done; }; \
	check '$(TRACE_RUN)' ./internal/sim && \
	check '$(CHAOS_RUN)' ./internal/sim && \
	check '$(OVERLOAD_RUN)' ./internal/sim && \
	check '$(OBS_RUN)' ./internal/sim && \
	check '$(ARENA_RUN)' ./internal/sim && \
	check '$(LIVEOBS_RUN)' ./internal/testnet ./internal/obs/live && \
	check '$(TELEMETRY_RUN)' ./cmd/armsim ./cmd/armnode && \
	check '$(LOOPBACK_RUN)' ./internal/testnet && \
	check '$(SOAK_RUN)' ./internal/testnet && \
	check '$(CHAOS_GOLDEN)' ./internal/sim && \
	check '$(OVERLOAD_GOLDEN)' ./internal/sim && \
	check '$(OBS_GOLDEN)' ./internal/sim && \
	check '$(ARENA_GOLDEN)' ./internal/sim && \
	check '$(SOAK_GOLDEN)' ./internal/testnet && \
	check '$(LIVEOBS_GOLDEN)' ./internal/testnet

## trace-determinism: the event-stream replication gate — every
## campus-family scenario list (modes, T_th, grid, chaos, overload,
## observed and arena) must give identical results, byte-identical JSONL
## traces and an identical merged obs snapshot at any worker count.
trace-determinism:
	$(GO) test -run '$(TRACE_RUN)' ./internal/sim

## chaos: the fault-injection recovery gate — chaos scenarios run under
## the race detector, recovery invariants are audited, and the pinned
## seed-1 fault trace must not drift.
chaos:
	$(GO) test -race -run '$(CHAOS_RUN)' ./internal/sim
	$(GO) test -race ./internal/faults

## overload: the overload-control gate — the load-ramp scenarios run
## under the race detector, the degrade-before-drop invariant is
## audited, and the pinned seed-1 overload trace must not drift.
overload:
	$(GO) test -race -run '$(OVERLOAD_RUN)' ./internal/sim
	$(GO) test -race ./internal/overload

## obs: the observability gate — the zero-perturbation guarantee, the
## instrument/span determinism checks, and the pinned seed-1 snapshot
## goldens, all under the race detector.
obs:
	$(GO) test -race -run '$(OBS_RUN)' ./internal/sim
	$(GO) test -race ./internal/obs

## obs-live: the live-plane observability gate — arming the wire
## recorders must leave the controller and node traces byte-identical
## (the zero-perturbation pin), the armed loopback run's cluster
## snapshot and span export must match the checked-in golden
## byte-for-byte, the disabled hook path must stay allocation-free,
## and the shared telemetry endpoints (armsim and armnode alike) must
## serve metrics, health, span tails and profiles correctly.
obs-live:
	$(GO) test -run '$(LIVEOBS_RUN)' -count=1 ./internal/testnet ./internal/obs/live
	$(GO) test -race ./internal/obs/live ./internal/telemetry
	$(GO) test -race -run '$(TELEMETRY_RUN)' ./cmd/armsim ./cmd/armnode

## arena: the strategy-seam gate — the head-to-head roster runs under
## the race detector (worker-count determinism, the pinned seed-1
## comparative snapshot, the default pair's equivalence to the plain
## campus run) alongside the strategy package's property and
## dispatch-cost tests.
arena:
	$(GO) test -race -run '$(ARENA_RUN)' ./internal/sim
	$(GO) test -race ./internal/strategy

## testnet: the live-vs-sim oracle — the scripted campus scenario run
## over the loopback wire fabric must produce a controller trace
## byte-identical to the pure simulation, deterministic node traces,
## and a clean final audit. Socket-free (the UDP cluster test runs in
## `race` but skips under -short).
testnet:
	$(GO) test -run '$(LOOPBACK_RUN)' -count=1 ./internal/testnet
	$(GO) test -race -count=1 ./internal/clock ./internal/testnet

## soak: the chaos-soak gate — a short deterministic soak (generated
## workload, rotating fault plans covering loss, reordering, a
## partition and a crash/restart) whose per-epoch audits must be clean
## and whose JSONL report must match the checked-in golden
## byte-for-byte. Includes the zero-cost proof that an empty fault plan
## leaves the loopback traces untouched.
soak:
	$(GO) test -run '$(SOAK_RUN)' -count=1 ./internal/testnet

## golden: regenerate the checked-in CLI fixtures after an intentional
## output change.
golden:
	$(GO) test ./cmd/paperfigs -update
	$(GO) test ./internal/sim -run '$(CHAOS_GOLDEN)' -update-chaos
	$(GO) test ./internal/sim -run '$(OVERLOAD_GOLDEN)' -update-overload
	$(GO) test ./internal/sim -run '$(OBS_GOLDEN)' -update-obs
	$(GO) test ./internal/sim -run '$(ARENA_GOLDEN)' -update-arena
	$(GO) test ./internal/testnet -run '$(SOAK_GOLDEN)' -update-soak
	$(GO) test ./internal/testnet -run '$(LIVEOBS_GOLDEN)' -update-live
