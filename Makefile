GO ?= go
FUZZTIME ?= 30s

.PHONY: all ci fmt vet build test race allocs perfbench-test bench bench-smoke bench-engines bench-sessions bench-transport profile engines chaos fuzz-smoke smoke-serve certify certify-smoke cover harness harness-smoke quick clean

all: ci

# ci is the gate every change must pass: gofmt, vet, build, the race-enabled
# test suite (the pool's concurrency is exercised under -race), the
# engine differential suite (named explicitly so an engine-equivalence
# regression is called out even though the race run also covers it),
# the chaos suite of the overload contract, a short continuous
# fuzz of each native fuzz target, a 1x-benchtime smoke run of
# every benchmark so benchmark code cannot rot uncompiled or uncovered,
# the repository benchmark's own vet and self-tests, the allocation
# pins without the race detector, the certification harness's
# coverage floor, a quick run of every harness experiment through its
# table entry, and an end-to-end drive of the HTTP service through the
# real binary.
ci: fmt vet build race allocs perfbench-test engines chaos certify-smoke cover fuzz-smoke bench-smoke harness-smoke smoke-serve

# engines runs the tree/VM differential tests — identical traces,
# clocks, mitigation records, and final memories across engines on the
# testdata corpus and generated programs — the check that both engines
# charge the same pinned metrics for one run
# (TestMetricsObservationalOnly), the server's engine tests (parity of
# both engines behind the server and the pool, the step budget on
# each, and the unknown-engine error), the CLI's check that run,
# compile -exec and exec of an image report one time
# (TestRunExecAgree), the bytecode package's fusion differential
# (fused vs unfused register form, and the unfused form against
# sem/full and the golden rows the stack interpreter recorded), and
# the simulated hierarchy's equivalence tests: the memoized site path
# the VM charges through against plain Access (TestAccessSite*,
# TestSiteMemo*, and the VM on an environment hidden behind a
# wrapper, TestOptPlainEnvMatchesSites), and both against the two-pass
# reference lookup (TestWalkMatchesReference), so the VM and the tree
# engine, which charges through Access, see the same hardware.
engines:
	$(GO) test -run 'TestEngine|TestEngines|TestMetricsObservationalOnly' ./internal/exec
	$(GO) test -run 'Engine' ./internal/server
	$(GO) test -run 'TestRunExecAgree' ./internal/cli
	$(GO) test -run 'TestOptDifferential|TestVMGolden|TestOptPlainEnvMatchesSites' ./internal/bytecode
	$(GO) test -run 'TestAccessSite|TestSiteMemo|TestWalkMatchesReference' ./internal/machine/hw

# chaos runs the overload contract's suite under the race detector:
# 100 randomized pool schedules of overload, budget, deadline,
# cancellation and shutdown, the deadline, crosstalk and determinism
# regressions, and, over HTTP, an open-loop overload run with a drain
# partway through, per-item shedding, the stream drain tests,
# /v1/metrics scraped while the shards serve, the serial-replay
# oracle (concurrent run, batch and stream traffic with evictions,
# budget denials and deadlines, runs cut off mid-run among them, each
# shard replayed serially through the tree engine), tenants named in opposite orders by concurrent
# batches and streams, which must not deadlock, and a stream whose
# client stops reading, which must hold no tenant's session. It also
# repeats the session races 20 times:
# a session evicted with no ticket is recycled for the next tenant, so
# a ticket used after its Commit, or a worker still writing a state its
# caller has released, would race another tenant's request, and one
# run of each test seldom catches that.
chaos:
	$(GO) test -race -count 1 -run 'TestChaos|TestDeadline|TestCancelled' ./internal/server
	$(GO) test -race -count 1 -run 'TestOverloadOutcomes|TestShedPerItem|TestStreamDrain|TestMetricsScrapeUnderLoad|TestSerialReplay|TestTenantOrdersNoDeadlock|TestStalledStreamHoldsNoSession' ./internal/transport
	$(GO) test -race -count 20 -run 'TestConcurrentTenantsRace|TestSessionRace' ./internal/session

# allocs runs the allocation pins without the race detector (whose
# sync.Pool drops a quarter of Puts on purpose, so the race run skips
# the pins that go through pools): the pool and server hot paths with
# recycled run buffers, admission, anonymous and tenanted batches
# through the HTTP handler, and the wire codec with both input sinks.
allocs:
	$(GO) test -count 1 -run 'Alloc' ./internal/server ./internal/session ./internal/transport ./internal/transport/wire/fastjson

# fuzz-smoke runs each native fuzz target for FUZZTIME (default 30s) of
# continuous mutation on top of the checked-in seed corpora
# (regenerate those with `go run ./internal/tools/genfuzzcorpus`).
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/lang/parser
	$(GO) test -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/bytecode
	$(GO) test -fuzz FuzzOptTraceIdentity -fuzztime $(FUZZTIME) ./internal/bytecode
	$(GO) test -fuzz FuzzWireCodecIdentity -fuzztime $(FUZZTIME) ./internal/transport/wire/fastjson
	$(GO) test -fuzz FuzzSlotDecode -fuzztime $(FUZZTIME) ./internal/transport/wire/fastjson

# smoke-serve builds the real timingc binary, serves the HTTP/JSON API
# on an ephemeral port, drives it through the client SDK (health, a
# 100-request batch, metrics in both formats, a pipelined /v1/stream
# exchange), and checks that SIGINT mid-stream drains cleanly: the
# open stream gets a terminal shutting_down line before the exit. It
# runs the drive once per engine, tree then vm.
smoke-serve:
	$(GO) run ./internal/tools/smokeserve

# fmt fails when gofmt would rewrite any Go file of the root module or
# of the perfbench/ module; the benchmark's build outputs under
# .bench_build/ are skipped.
fmt:
	@files=$$(find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*'); \
	  bad=$$(gofmt -l $$files); \
	  if [ -n "$$bad" ]; then echo "gofmt -l lists:"; echo "$$bad"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest) execution order so
# inter-test state dependence cannot hide; the seed is printed on
# failure for replay with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# perfbench-test vets and tests the repository benchmark (perfbench/),
# which is its own Go module, so the root ./... never reaches it: its
# self-tests check that the metric names match BENCHMARK.json and that
# the response replay catches planted errors.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run ^$$ .

# bench-smoke executes every benchmark in the repository exactly once —
# a compile-and-run check for ci, not a measurement.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run ^$$ ./...

# bench-engines records the engine comparison into BENCH_engines.json:
# the pool's throughput matrix (sleep and compute workloads × both
# engines × 1-8 workers, with allocations) plus the per-engine
# microbenchmarks, 3 runs each, parsed by the benchjson tool, which
# keeps the raw lines verbatim for benchstat and reports each
# benchmark's median, min and max.
bench-engines:
	{ $(GO) test -run '^$$' -bench BenchmarkServerPool -benchtime 2s -count 3 . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchtime 1s -count 3 ./internal/exec ; } \
	  | tee bench_engines.txt | $(GO) run ./internal/tools/benchjson -o BENCH_engines.json
	@rm -f bench_engines.txt
	@echo wrote BENCH_engines.json

# bench-sessions records the tenant-session manager's admission hot
# path into BENCH_sessions.json: working sets of 1/100/10k tenants,
# LRU eviction churn (a 64-session cap, and tables filled to caps of
# 1,024 and 65,536 — serve's default — with and without a TTL, where
# every admission evicts), and budget-checked admission, 3 runs each.
# (ci's bench-smoke already executes these once per run, so the
# benchmark code cannot rot; this target is the measurement.)
bench-sessions:
	$(GO) test -run '^$$' -bench BenchmarkSessionManager -benchtime 2s -count 3 -benchmem ./internal/session \
	  | tee bench_sessions.txt | $(GO) run ./internal/tools/benchjson -o BENCH_sessions.json
	@rm -f bench_sessions.txt
	@echo wrote BENCH_sessions.json

# bench-transport records the wire transport matrix into
# BENCH_transport.json: the {run, batch, stream} submission modes over
# loopback HTTP, 3 runs each with -benchmem so the allocation profile
# is on record; benchjson reports each mode's median req/s, from which
# the stream/run ratio (pipelining's gain over one round trip per
# request) follows. (ci's bench-smoke executes the benchmark once per
# run, so it cannot rot; this target is the measurement.)
bench-transport:
	$(GO) test -run '^$$' -bench BenchmarkTransport -benchtime 2s -count 3 -benchmem ./internal/transport \
	  | tee bench_transport.txt | $(GO) run ./internal/tools/benchjson -o BENCH_transport.json
	@rm -f bench_transport.txt
	@echo wrote BENCH_transport.json

# certify runs the FULL adversarial leakage-certification matrix —
# {tree, vm} × {partitioned, nopar} × {mitigated, unmitigated} ×
# {login, rsa, sleep, progen corpus} across the engine, pool, and HTTP
# bindings, 46 rows, each attacked by the five-adversary battery —
# fails if any mitigated partitioned row's measured leakage upper
# bound exceeds its reported §7 bound, if no insecure baseline
# measurably leaks, or if prime+probe measures no cache channel on
# any mitigated nopar row, and records the matrix into
# BENCH_certify.json. Same seed ⇒ byte-identical output.
certify:
	$(GO) run ./internal/tools/certifybench -seed 1 > bench_certify.txt
	$(GO) run ./internal/tools/benchjson -o BENCH_certify.json < bench_certify.txt
	@rm -f bench_certify.txt
	@echo wrote BENCH_certify.json

# certify-smoke is the ci slice of the matrix: every binding, both
# verdict polarities and the cache control, seconds not minutes.
certify-smoke:
	$(GO) run ./internal/tools/certifybench -seed 1 -quick > /dev/null

# cover enforces the certification harness's coverage floor: the
# package that asserts the security claim must itself be ≥ 85%
# statement-covered, so a rotted assertion cannot hide.
cover:
	$(GO) test -coverprofile=cover_certify.out ./internal/certify
	@$(GO) tool cover -func=cover_certify.out | awk '/^total:/ { sub(/%/, "", $$3); \
	  if ($$3 + 0 < 85.0) { printf "FAIL: internal/certify coverage %.1f%% below the 85%% floor\n", $$3; exit 1 } \
	  else { printf "internal/certify coverage %.1f%% (floor 85%%)\n", $$3 } }'
	@rm -f cover_certify.out

# profile captures a CPU profile of the pool benchmark's vm-engine hot
# path; inspect with `go tool pprof repro.test cpu.prof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkServerPool/workload=sleep/engine=vm/workers=4$$' \
	  -benchtime 3s -cpuprofile cpu.prof -o repro.test .
	@echo "wrote cpu.prof; inspect with: $(GO) tool pprof repro.test cpu.prof"

harness:
	$(GO) run ./cmd/harness -quick

# harness-smoke runs every experiment of the harness's table at reduced
# scale through its JSON path, so the table's runners, quick
# configurations and JSON export cannot rot.
harness-smoke:
	$(GO) run ./cmd/harness -quick -format json > /dev/null

quick: vet build test

clean:
	rm -f cpu.prof repro.test bench_engines.txt bench_sessions.txt bench_transport.txt bench_certify.txt cover_certify.out
