# Verification tiers. tier1 is the gate every change must keep green
# (a gofmt-clean tree, build, vet, tests, plus vet and tests of the
# separate perfbench module, which root `go build ./...` never compiles
# but which imports the serve/gate/client API); tier2 adds the race detector (the experiment
# harness runs simulations on a worker pool, so -race now guards real
# concurrency), a parallel-determinism smoke that diffs sstbench -j 4
# against -j 1, the fault-fuzz smoke (fixed seeds, bounded wall-clock)
# of the speculation-invisibility oracle, the leak-fuzz smoke (gadget
# corpus + fixed seeds through the transient-leakage oracle), a bounded
# coverage-guided differential fuzz session (fuzz-short), and the
# rocksimd service
# smoke (serve-smoke: load, grid byte-identity, SIGTERM drain), and the
# fleet smoke (fleet-smoke: 3 shards behind rockgate, grid
# byte-identity, loss-free drain of all four processes);
# determinism re-runs the observability tests twice in one process to
# prove the exports are byte-stable across map-iteration orders.

GO ?= go

.PHONY: all tier1 tier2 race smoke-parallel fault-fuzz leak-fuzz fuzz-short serve-smoke fleet-smoke trace-smoke bpred-grid-smoke stress determinism ci bench-overhead golden bench bench-guard profile

all: tier1

tier1:
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Fault-injection smoke: fixed seeds through the speculation-
# invisibility oracle (see docs/ROBUSTNESS.md). The full 200-seed sweep
# runs as TestFaultFuzzEquivalence in the ordinary test suite; this
# target is the quick, always-reproducible subset for pre-commit runs.
fault-fuzz:
	$(GO) test ./internal/sim -run 'TestFaultFuzzSmoke|TestFaultOracleTeeth' -count=1 -timeout 10m

# Transient-leakage smoke: the gadget corpus must leak unmitigated and
# go clean under the secure modes, and fixed-seed generated programs
# with secret-tainted data must pass the differential leakage oracle on
# every core kind (see docs/SECURITY.md). The wider 60-seed sweep runs
# as TestLeakFuzzNoFalsePositives in the ordinary test suite.
leak-fuzz:
	$(GO) test ./internal/sim -run 'TestLeakFuzzSmoke|TestGadgetsLeakUnmitigated|TestGadgetLeakMatrix' -count=1 -timeout 10m

# Prove the -j worker pool changes nothing but wall clock: regenerate
# every experiment at test scale serially and with 4 workers and
# require byte-identical tables (only the "regenerated in" wall-clock
# lines may differ).
smoke-parallel:
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	/tmp/sstbench-smoke -scale test -j 1 | grep -v 'regenerated in' > /tmp/sstbench-j1.txt
	/tmp/sstbench-smoke -scale test -j 4 | grep -v 'regenerated in' > /tmp/sstbench-j4.txt
	diff -u /tmp/sstbench-j1.txt /tmp/sstbench-j4.txt
	@echo "smoke-parallel: -j 1 and -j 4 output identical"

tier2: race smoke-parallel fault-fuzz leak-fuzz fuzz-short serve-smoke fleet-smoke trace-smoke bpred-grid-smoke stress bench-guard

# Repeat the tests that used to fail intermittently: the gate's
# connection-bound test under the race detector (it once set ConnState
# on a running server) and the two pool-reuse tests (sync.Pool's per-P
# slot missed when the worker migrated between Put and Get). About 20 s
# of wall time on a 2-CPU host with a warm build cache.
stress:
	$(GO) test -race -count=10 ./internal/gate -run TestFanOutConnectionBound
	$(GO) test -count=60 ./internal/experiments -run 'TestPoolReuses(Instances|AfterWatchdogError)$$'

# Bounded coverage-guided session of the native differential fuzz
# target (internal/sim FuzzDifferential): the mutator drives the
# program generator's choice stream, so every input is a valid program
# diffed emulator-vs-every-core. The seed corpus under
# internal/sim/testdata/corpus runs in plain `go test` as regressions.
fuzz-short:
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzDifferential -fuzztime 20s

# End-to-end daemon smoke: boot rocksimd, load it with rockload, prove
# the daemon's /v1/grid output is byte-identical to sstbench, then
# SIGTERM it and require a clean (exit 0) drain.
serve-smoke:
	$(GO) build -o /tmp/rocksimd-smoke ./cmd/rocksimd
	$(GO) build -o /tmp/rockload-smoke ./cmd/rockload
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	@set -e; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8321 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		/tmp/rockload-smoke -addr http://127.0.0.1:8321 -healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/rockload-smoke -addr http://127.0.0.1:8321 -n 120 -c 8 -scale test -o /tmp/BENCH_serve_smoke.json; \
	/tmp/rockload-smoke -addr http://127.0.0.1:8321 -scale test -grid-exps T1,F3,F12 -grid-out /tmp/serve-grid.txt; \
	/tmp/sstbench-smoke -scale test -j 1 -exp T1,F3,F12 | grep -v 'regenerated in' > /tmp/serve-grid-ref.txt; \
	diff -u /tmp/serve-grid-ref.txt /tmp/serve-grid.txt; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "serve-smoke: grid byte-identical to sstbench; daemon drained cleanly on SIGTERM"

# Fleet smoke: boot 3 rocksimd shards and a rockgate router in front,
# prove the gateway's /v1/grid (cells fanned out by cache key, the
# bespoke F12 routed whole) is byte-identical to sstbench, then SIGTERM
# all four processes and require clean (exit 0) drains.
fleet-smoke:
	$(GO) build -o /tmp/rocksimd-smoke ./cmd/rocksimd
	$(GO) build -o /tmp/rockgate-smoke ./cmd/rockgate
	$(GO) build -o /tmp/rockload-smoke ./cmd/rockload
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	@set -e; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8331 -shard-id s0 & p0=$$!; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8332 -shard-id s1 & p1=$$!; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8333 -shard-id s2 & p2=$$!; \
	trap 'kill $$p0 $$p1 $$p2 $$pg 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		/tmp/rockload-smoke -targets http://127.0.0.1:8331,http://127.0.0.1:8332,http://127.0.0.1:8333 -healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/rockgate-smoke -addr 127.0.0.1:8330 -shards http://127.0.0.1:8331,http://127.0.0.1:8332,http://127.0.0.1:8333 & pg=$$!; \
	for i in $$(seq 1 50); do \
		/tmp/rockload-smoke -addr http://127.0.0.1:8330 -healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/rockload-smoke -addr http://127.0.0.1:8330 -scale test -grid-exps T1,F3,F12 -grid-out /tmp/fleet-grid.txt; \
	/tmp/sstbench-smoke -scale test -j 1 -exp T1,F3,F12 | grep -v 'regenerated in' > /tmp/fleet-grid-ref.txt; \
	diff -u /tmp/fleet-grid-ref.txt /tmp/fleet-grid.txt; \
	kill -TERM $$pg; wait $$pg; \
	kill -TERM $$p0 $$p1 $$p2; wait $$p0; wait $$p1; wait $$p2; \
	trap - EXIT; \
	echo "fleet-smoke: 3-shard grid byte-identical to sstbench; gateway and shards drained cleanly"

# Predictor-grid smoke: the B1 kind-x-sharing grid must be byte-
# identical serial vs -j 4 through sstbench, byte-identical again
# through a rocksimd round-trip, and the daemon must export the bpred/*
# predictor counters on /metrics once it has served cells.
bpred-grid-smoke:
	$(GO) build -o /tmp/sstbench-smoke ./cmd/sstbench
	$(GO) build -o /tmp/rocksimd-smoke ./cmd/rocksimd
	$(GO) build -o /tmp/rockload-smoke ./cmd/rockload
	/tmp/sstbench-smoke -scale test -j 1 -exp B1 | grep -v 'regenerated in' > /tmp/bpred-grid-j1.txt
	/tmp/sstbench-smoke -scale test -j 4 -exp B1 | grep -v 'regenerated in' > /tmp/bpred-grid-j4.txt
	diff -u /tmp/bpred-grid-j1.txt /tmp/bpred-grid-j4.txt
	@set -e; \
	/tmp/rocksimd-smoke -addr 127.0.0.1:8341 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 50); do \
		/tmp/rockload-smoke -addr http://127.0.0.1:8341 -healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	/tmp/rockload-smoke -addr http://127.0.0.1:8341 -scale test -grid-exps B1 -grid-out /tmp/bpred-grid-serve.txt; \
	diff -u /tmp/bpred-grid-j1.txt /tmp/bpred-grid-serve.txt; \
	/tmp/rockload-smoke -addr http://127.0.0.1:8341 -n 20 -c 4 -scale test -o /tmp/BENCH_bpred_smoke.json >/dev/null; \
	curl -sf http://127.0.0.1:8341/metrics | grep -q '^rocksim_bpred_dir_lookups '; \
	curl -sf http://127.0.0.1:8341/metrics | grep -q '^rocksim_bpred_deferred_dir_trains '; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "bpred-grid-smoke: B1 byte-identical (serial, -j 4, rocksimd); bpred/* counters on /metrics"

# Tracing and cycle-accounting smoke on real tool output (the unit
# tests cover the libraries; this covers what the binaries write):
# run a traced single cell and a traced small grid, lint the Chrome
# trace JSON (parses; every span has ts/dur/pid/tid), and check the
# cpi_stack sum invariant on the emitted report.
trace-smoke:
	$(GO) build -o /tmp/sstsim-trace ./cmd/sstsim
	$(GO) build -o /tmp/sstbench-trace ./cmd/sstbench
	$(GO) build -o /tmp/tracelint ./cmd/tracelint
	/tmp/sstsim-trace -core sst -workload chase -scale test -json -trace /tmp/trace-run.json > /tmp/trace-report.json
	/tmp/sstbench-trace -scale test -j 2 -exp T1,F3 -trace /tmp/trace-grid.json > /dev/null
	/tmp/tracelint -trace /tmp/trace-run.json -report /tmp/trace-report.json
	/tmp/tracelint -trace /tmp/trace-grid.json
	@echo "trace-smoke: traces render-valid; cpi_stack sums to cycles"

# Measure simulator throughput (simulated cycles per wall-clock second
# and allocations per run, every core kind) and record the baseline JSON
# consumed by bench-guard. Machine-specific: regenerate on the machine
# that runs the guard.
bench:
	$(GO) run ./cmd/simthroughput -o BENCH_simthroughput.json
	$(GO) run ./cmd/rockload -self -n 200 -c 8 -scale test -o BENCH_serve.json
	$(GO) run ./cmd/rockload -fleet-bench -fleet-sizes 1,2,4 -shard-jobs 1 -n 60 -c 6 -scale test -o BENCH_serve.json

# Fail when any kind runs at <80% of the recorded simcycles/s or
# allocates >120% of the recorded allocs/op, when a pooled (reused
# sim.Instance) short-program run exceeds 100 allocs/op — an ABSOLUTE
# ceiling, independent of the baseline — or falls under 80% of the
# recorded pooled runs/s, or when the service serves
# <80% of the recorded req/s (p95 >120% + 5ms also fails); when the
# baseline carries a "fleet" section, each recorded fleet size is
# re-measured and must hold >=80% of its recorded cell throughput and
# scaling factor with no new popular-cell misses; a missing baseline
# (or missing fleet section) skips the corresponding guard.
bench-guard:
	$(GO) run ./cmd/simthroughput -check BENCH_simthroughput.json
	$(GO) run ./cmd/rockload -check BENCH_serve.json

# CPU+heap profile of a test-scale sstbench run, for hot-loop work (see
# docs/PERFORMANCE.md). Inspect with: go tool pprof cpu.prof
profile:
	$(GO) build -o /tmp/sstbench-prof ./cmd/sstbench
	/tmp/sstbench-prof -scale test -j 1 -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "profile: wrote cpu.prof and mem.prof (go tool pprof cpu.prof)"

determinism:
	$(GO) test -run TestObs -count=2 ./...

ci: tier1 tier2 determinism

# Guard the near-zero disabled cost of the observability layer: compare
# ns/op by hand against the seed baseline recorded in ISSUE.md.
bench-overhead:
	$(GO) test -bench SimSST -benchtime 2x -run '^$$' .

# Regenerate the Chrome-trace golden file after a deliberate exporter
# format change.
golden:
	$(GO) test ./internal/obs -run TestObsChromeGolden -update
