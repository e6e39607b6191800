# Tier-1 gate: everything must lint, build and every test must pass — the
# nested perfbench module's too — the two-backend fleet smoke must come up
# healthy behind the router, and the short-benchtime perf gate must hold the
# hot kernels within tolerance.
test: lint
	go build ./...
	go test ./...
	$(MAKE) perfbench-check
	$(MAKE) fleet-smoke
	$(MAKE) chaos-smoke
	$(MAKE) sim-compile-smoke
	$(MAKE) bench-gate

# Static-analysis gate: go vet plus a gofmt cleanliness check. gofmt -l
# prints the files that need reformatting; any output fails the target.
lint:
	go vet ./...
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi

# The end-to-end benchmark (perfbench/, declared by BENCHMARK.json) is a
# nested module, so the root `go test ./...` never enters it: vet and test it
# on its own, so a change that breaks a call perfbench makes fails here and
# not first when the benchmark runs.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

# Kept as an alias for the vet half of lint.
vet:
	go vet ./...

# Tier-1-adjacent concurrency gate: the packages with parallel execution
# paths (re-entrant RNA evaluation, batched hardware inference, k-means,
# the serving batcher, the lock-free metrics/tracing instruments) must be
# clean under the race detector — including the scratch-arena plumbing
# underneath them (counting, crossbar adder, NDCAM) and concurrent
# instrumented batches on one network, each worker on its own Scratch
# (TestInstrumentedInferBatchConcurrent) — the compilation pass's parallel
# candidate scoring (internal/accel/compile), and the software forward that
# concurrent predicts share (internal/nn, TestConcurrentPredictIsRaceFree).
race:
	go test -race ./internal/rna/... ./internal/cluster/... ./internal/serve/... \
		./internal/counting/... ./internal/crossbar/... ./internal/ndcam/... \
		./internal/obs/... ./internal/fleet/... ./internal/chaos/... \
		./internal/accel/... ./internal/nn/...

# Robustness gate: fuzz the RAPIDNN2 artifact reader and the predict-body
# decoders with a short budget each. The artifact seeds (a valid artifact
# plus truncations/corruptions) are built in-test; the contract is "never
# panic, return a model xor an error". The predict-body decoders must accept
# exactly what encoding/json accepts and decode the same values. Their seeds
# include 10 and 20 KB bodies, whose new-coverage mutants the fuzzer would
# otherwise spend up to a minute each minimizing, so minimizing is capped.
fuzz:
	go test -run '^FuzzLoadFlat$$' -fuzz '^FuzzLoadFlat$$' -fuzztime 15s ./internal/composer/
	go test -run '^FuzzPredictBody$$' -fuzz '^FuzzPredictBody$$' -fuzztime 15s \
		-fuzzminimizetime 200x ./internal/serve/

# Scaling check: batched hardware inference at several worker counts.
# On a multi-core host the ns/op should fall as workers approach GOMAXPROCS;
# TestInferBatchMatchesSerialInfer pins the outputs bit-identical meanwhile.
bench-parallel:
	go test -run '^$$' -bench BenchmarkHardwareInferBatch ./internal/rna/

# Serving trade-off: micro-batch size sweep under fixed open-loop load.
bench-serve:
	go test -run '^$$' -bench BenchmarkServeBatching -benchtime 2000x ./internal/serve/

# Hot-path microbenchmarks with allocation counts: the neuron fire, the
# NDCAM search, batched hardware inference, the serve round-trip, and
# artifact cold start (RAPIDNN2 mmap). BENCH_PR9.json pins
# the expected numbers; bench-compare re-runs this set and fails on
# regression. (BENCH_PR4.json stays committed as the pre-bit-slicing
# trajectory point.) Regenerate the baseline with bench-hot piped through
# rapidnn-benchstat -before/-after.
HOT_BENCHES = BenchmarkNeuronFire|BenchmarkSearchAllocs|BenchmarkHardwareInferBatch|BenchmarkServeRoundTrip|BenchmarkColdStart
HOT_PKGS = ./internal/rna/ ./internal/ndcam/ ./internal/serve/ ./internal/composer/

bench-hot:
	go test -run '^$$' -bench '$(HOT_BENCHES)' -benchmem $(HOT_PKGS)

# The two checking targets pipe go test into the checker. pipefail (which
# dash, the usual /bin/sh, rejects) makes a test package that does not build,
# or a benchmark that fails, fail the target even when every row that did
# run is within tolerance.
bench-compare bench-gate: SHELL := /bin/bash
bench-compare bench-gate: .SHELLFLAGS := -o pipefail -c

bench-compare:
	go build -o /tmp/rapidnn-benchstat ./cmd/rapidnn-benchstat
	go test -run '^$$' -bench '$(HOT_BENCHES)' -benchmem $(HOT_PKGS) \
		| /tmp/rapidnn-benchstat -check BENCH_PR9.json

# Short perf regression gate, cheap enough to ride inside `make test`: the
# three kernels whose regressions have historically been silent (neuron fire,
# batched hardware inference, the NDCAM search) run at a reduced benchtime and
# must stay within 10% ns/op of the committed baseline. -count 3 with the
# checker's best-of-N merge filters scheduler/thermal noise out of the short
# samples. bench-compare is the full-fidelity sweep; this is the tripwire.
bench-gate:
	go build -o /tmp/rapidnn-benchstat ./cmd/rapidnn-benchstat
	go test -run '^$$' -bench 'BenchmarkNeuronFire|BenchmarkHardwareInferBatch|BenchmarkSearchAllocs' \
		-benchmem -benchtime 0.3s -count 3 ./internal/rna/ ./internal/ndcam/ \
		| /tmp/rapidnn-benchstat -check BENCH_PR9.json -tolerance 1.1

# Artifact cold-start latency alone: LoadFile's RAPIDNN2 mmap of a
# serving-scale model. Part of bench-compare via HOT_BENCHES; this target is
# the quick standalone view.
bench-cold:
	go test -run '^$$' -bench BenchmarkColdStart -benchmem ./internal/composer/

# End-to-end smoke: boot rapidnn-serve on a random port with the synthetic
# MNIST demo model, hit /healthz, and assert it answers 200.
serve-smoke:
	go build -o /tmp/rapidnn-serve ./cmd/rapidnn-serve
	@rm -f /tmp/rapidnn-serve.addr
	@/tmp/rapidnn-serve -demo MNIST -addr 127.0.0.1:0 -addr-file /tmp/rapidnn-serve.addr & \
	pid=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/rapidnn-serve.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/rapidnn-serve.addr); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz"); \
	kill $$pid; wait $$pid 2>/dev/null; \
	echo "serve-smoke: /healthz -> $$code"; \
	[ "$$code" = "200" ]

# Fleet smoke: two demo backends behind a rapidnn-router, assert the
# router's /healthz reports the fleet healthy (it polls the backends, so
# give the first probe round a moment to land).
fleet-smoke:
	go build -o /tmp/rapidnn-serve ./cmd/rapidnn-serve
	go build -o /tmp/rapidnn-router ./cmd/rapidnn-router
	@rm -f /tmp/rapidnn-fleet-b1.addr /tmp/rapidnn-fleet-b2.addr /tmp/rapidnn-fleet-router.addr
	@/tmp/rapidnn-serve -demo MNIST -addr 127.0.0.1:0 -addr-file /tmp/rapidnn-fleet-b1.addr & \
	b1=$$!; \
	/tmp/rapidnn-serve -demo MNIST -addr 127.0.0.1:0 -addr-file /tmp/rapidnn-fleet-b2.addr & \
	b2=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/rapidnn-fleet-b1.addr ] && [ -s /tmp/rapidnn-fleet-b2.addr ] && break; sleep 0.1; done; \
	/tmp/rapidnn-router -addr 127.0.0.1:0 -addr-file /tmp/rapidnn-fleet-router.addr \
		-poll-interval 100ms \
		-replica "http://$$(cat /tmp/rapidnn-fleet-b1.addr)" \
		-replica "http://$$(cat /tmp/rapidnn-fleet-b2.addr)" & \
	rt=$$!; \
	for i in $$(seq 1 50); do [ -s /tmp/rapidnn-fleet-router.addr ] && break; sleep 0.1; done; \
	addr=$$(cat /tmp/rapidnn-fleet-router.addr); \
	code=000; \
	for i in $$(seq 1 50); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz"); \
		[ "$$code" = "200" ] && break; sleep 0.1; \
	done; \
	kill $$rt $$b1 $$b2; wait $$rt $$b1 $$b2 2>/dev/null; \
	echo "fleet-smoke: router /healthz -> $$code"; \
	[ "$$code" = "200" ]

# Resilience smoke: deterministic failpoints through the real binaries — a
# slow replica (latency failpoint) and a flaky one (injected 500s) behind
# the router. Closed-loop load must see only successes and explicit sheds,
# with a bounded tail (hedging) and bounded attempt amplification (retry
# budget); a deadline share already spent must be shed at admission.
# -count=1 so the fault run is always live, never a cached test result.
chaos-smoke:
	go test -run '^TestRouterChaosSmoke$$' -count=1 ./cmd/rapidnn-router/

# Compilation-pass smoke: compile MNIST and ISOLET under both objectives
# through the real binary and assert (a) the event simulator confirmed the
# analytic schedule on every run and (b) the throughput schedules strictly
# beat the uncompiled initiation interval (the "improvement: II" line only
# prints on strict gains).
sim-compile-smoke:
	go build -o /tmp/rapidnn-sim ./cmd/rapidnn-sim
	@for net in MNIST ISOLET; do \
		for mode in throughput latency; do \
			out=$$(/tmp/rapidnn-sim -net $$net -mode $$mode) || exit 1; \
			echo "$$out" | grep -q "event-sim check" || \
				{ echo "sim-compile-smoke: $$net $$mode missing event-sim confirmation"; exit 1; }; \
			if [ "$$mode" = throughput ]; then \
				echo "$$out" | grep -q "improvement: II" || \
					{ echo "sim-compile-smoke: $$net throughput schedule shows no II improvement"; exit 1; }; \
			fi; \
		done; \
	done; \
	echo "sim-compile-smoke: MNIST+ISOLET compiled and validated under both objectives"

# Non-test Go lines per package directory, the nested perfbench module
# included: the size figures each change reports in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; n[d] += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d }' | sort -k2

check: test vet race

.PHONY: test lint vet perfbench-check race fuzz bench-parallel bench-serve bench-hot bench-cold bench-compare bench-gate serve-smoke fleet-smoke chaos-smoke sim-compile-smoke loc check
