# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build fmt lint lint-strict test race audit vet check suite-smoke mode-smoke serve-smoke examples cover

all: check

build:
	$(GO) build ./...

# fmt fails when gofmt would rewrite any tracked Go file outside testdata/
# (the analyzer fixtures there are inputs, not source).
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -Ev '(^|/)testdata/')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the simulator's custom static-analysis suite (cmd/simlint):
# determinism, clock/randomness hygiene, float equality, cache-key schema,
# context threading, lock discipline, goroutine lifecycle, and fingerprint
# purity. Suppress a finding with `//lint:allow <reason>` — see DESIGN.md.
lint:
	$(GO) run ./cmd/simlint ./...

# lint-strict is the CI invocation: the full suite over both the default
# and the audit-tagged file sets, with stale //lint:allow directives
# escalated to blocking findings.
lint-strict:
	$(GO) run ./cmd/simlint -strict ./...
	$(GO) run ./cmd/simlint -strict -tags audit ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# audit compiles the per-cycle invariant checks into every run (the
# `audit` build tag) and exercises the pipeline packages under them.
audit:
	$(GO) test -tags audit ./internal/core ./internal/ftq ./internal/frontend

vet:
	$(GO) vet ./...

# suite-smoke is the scaled-down end-to-end suite through cmd/experiments,
# cold and then warm against one run cache: the warm pass must print
# byte-identical tables and be pure hits — its run-cache line on stderr
# must report 0 misses and 0 stored, so a warm pass that re-simulated
# fails even when its output matches. Each extension then runs cold and
# warm against the same cache under the same two checks.
suite-smoke:
	rm -rf /tmp/frontsim-suite-smoke && mkdir -p /tmp/frontsim-suite-smoke
	$(GO) build -o /tmp/frontsim-suite-smoke/experiments ./cmd/experiments
	/tmp/frontsim-suite-smoke/experiments -n 3 -warmup 100000 -instrs 300000 -profile 400000 \
		-cache /tmp/frontsim-suite-smoke/cache -quiet > /tmp/frontsim-suite-smoke/cold.txt
	/tmp/frontsim-suite-smoke/experiments -n 3 -warmup 100000 -instrs 300000 -profile 400000 \
		-cache /tmp/frontsim-suite-smoke/cache > /tmp/frontsim-suite-smoke/warm.txt \
		2> /tmp/frontsim-suite-smoke/warm.err
	diff /tmp/frontsim-suite-smoke/cold.txt /tmp/frontsim-suite-smoke/warm.txt
	grep -Eq '^run cache: [0-9]+ hits, 0 misses, 0 stored' /tmp/frontsim-suite-smoke/warm.err \
		|| { echo "FAIL: warm pass was not pure cache hits"; cat /tmp/frontsim-suite-smoke/warm.err; exit 1; }
	for ext in preload ispy feedback; do \
		out=/tmp/frontsim-suite-smoke/ext-$$ext; \
		/tmp/frontsim-suite-smoke/experiments -n 3 -warmup 100000 -instrs 300000 -profile 400000 \
			-cache /tmp/frontsim-suite-smoke/cache -extension $$ext -quiet > $$out-cold.txt || exit 1; \
		/tmp/frontsim-suite-smoke/experiments -n 3 -warmup 100000 -instrs 300000 -profile 400000 \
			-cache /tmp/frontsim-suite-smoke/cache -extension $$ext > $$out-warm.txt 2> $$out-warm.err || exit 1; \
		diff $$out-cold.txt $$out-warm.txt || exit 1; \
		grep -Eq '^run cache: [0-9]+ hits, 0 misses, 0 stored' $$out-warm.err \
			|| { echo "FAIL: warm -extension $$ext was not pure cache hits"; cat $$out-warm.err; exit 1; }; \
	done
	@echo "suite-smoke: warm suite and extension passes pure hits and byte-identical to the cold passes"

# mode-smoke checks that the run-mode flags reach their runs end to end
# (that no mode changes a result is TestConformance's job), from one build
# of each command: fesim -obs writes a sample/event/metrics bundle; a
# sampled fesim run reports an IPC estimate whose 95% confidence interval
# contains the exact run's IPC — the one accuracy check no Go test makes,
# at the validated 30k/3k/6k geometry over 1.5M instructions of
# secret_srv12; and a sampled, observed mechanism ablation through
# cmd/experiments renders ± columns and writes its suite metrics. CI
# uploads the bundle directory.
mode-smoke:
	rm -rf /tmp/frontsim-mode-smoke && mkdir -p /tmp/frontsim-mode-smoke
	$(GO) build -o /tmp/frontsim-mode-smoke/fesim ./cmd/fesim
	$(GO) build -o /tmp/frontsim-mode-smoke/experiments ./cmd/experiments
	/tmp/frontsim-mode-smoke/fesim -workload secret_srv12 -instrs 1500000 -warmup 200000 \
		> /tmp/frontsim-mode-smoke/exact.txt
	/tmp/frontsim-mode-smoke/fesim -workload secret_srv12 -instrs 1500000 -warmup 200000 \
		-sampling-interval 30000 -sampling-detail 3000 -sampling-warm 6000 \
		-obs -obs-dir /tmp/frontsim-mode-smoke/bundle -obs-stride 16 \
		> /tmp/frontsim-mode-smoke/sampled.txt
	test -s /tmp/frontsim-mode-smoke/bundle/secret_srv12.samples.jsonl
	test -s /tmp/frontsim-mode-smoke/bundle/secret_srv12.metrics.json
	test -s /tmp/frontsim-mode-smoke/bundle/secret_srv12.metrics.prom
	exact=$$(awk '$$1=="IPC" && $$2!="estimate" {print $$2; exit}' /tmp/frontsim-mode-smoke/exact.txt); \
	awk -v exact="$$exact" '$$1=="IPC" && $$2=="estimate" { lo=$$4; hi=$$5; gsub(/[\[\],]/,"",lo); gsub(/[\[\],]/,"",hi); \
		if (exact+0 < lo+0 || exact+0 > hi+0) { printf "FAIL: exact IPC %s outside sampled 95%% CI [%s, %s]\n", exact, lo, hi; exit 1 } \
		printf "exact IPC %s inside sampled 95%% CI [%s, %s]\n", exact, lo, hi; found=1 } \
		END { if (!found) { print "FAIL: no IPC estimate line"; exit 1 } }' /tmp/frontsim-mode-smoke/sampled.txt
	/tmp/frontsim-mode-smoke/experiments -ablation mechanism -n 1 \
		-warmup 50000 -instrs 150000 -profile 200000 -no-cache -quiet \
		-sampling-interval 30000 -sampling-detail 3000 -sampling-warm 6000 \
		-obs -obs-dir /tmp/frontsim-mode-smoke/bundle -obs-stride 64 \
		> /tmp/frontsim-mode-smoke/table.txt
	grep -q '±' /tmp/frontsim-mode-smoke/table.txt \
		|| { echo "FAIL: sampled mechanism table has no ± columns"; cat /tmp/frontsim-mode-smoke/table.txt; exit 1; }
	test -s /tmp/frontsim-mode-smoke/bundle/metrics.json
	@echo "mode-smoke: -obs bundles written, sampled CI contains the exact IPC, sampled tables carry ±"

# serve-smoke proves the serving layer end to end: a warm cmd/experiments
# cache provides the reference bytes; a cold simd (2 execution slots,
# 4-deep queue, so the burst also exercises 429 + client retry) serves the
# same cells over HTTP to 32 concurrent serveclient requests (24
# duplicates of one cell + 8 distinct); the service's counters must show
# coalescing (executions < requests); every response must byte-match the
# experiments cache entry at its fingerprint; and SIGTERM must drain,
# flush metrics, and exit 0.
serve-smoke:
	rm -rf /tmp/frontsim-serve-smoke && mkdir -p /tmp/frontsim-serve-smoke
	$(GO) build -o /tmp/frontsim-serve-smoke/experiments ./cmd/experiments
	$(GO) build -o /tmp/frontsim-serve-smoke/simd ./cmd/simd
	$(GO) build -o /tmp/frontsim-serve-smoke/serveclient ./examples/serveclient
	/tmp/frontsim-serve-smoke/experiments -figure 1 -n 9 -warmup 20000 -instrs 60000 \
		-profile 80000 -cache /tmp/frontsim-serve-smoke/expcache -quiet > /dev/null
	/tmp/frontsim-serve-smoke/simd -addr 127.0.0.1:18091 \
		-cache /tmp/frontsim-serve-smoke/simdcache \
		-warmup 20000 -instrs 60000 -profile 80000 -max-concurrent 2 -queue 4 \
		-metrics-out /tmp/frontsim-serve-smoke/final.prom \
		2> /tmp/frontsim-serve-smoke/simd.log & \
	SIMD_PID=$$!; \
	trap "kill $$SIMD_PID 2>/dev/null" EXIT; \
	sleep 1; \
	/tmp/frontsim-serve-smoke/serveclient -addr http://127.0.0.1:18091 \
		-dup 24 -distinct 8 -warmup 20000 -instrs 60000 -profile 80000 \
		-verify-cache /tmp/frontsim-serve-smoke/expcache \
		|| { cat /tmp/frontsim-serve-smoke/simd.log; exit 1; }; \
	kill -TERM $$SIMD_PID; \
	wait $$SIMD_PID || { echo "simd did not drain cleanly"; cat /tmp/frontsim-serve-smoke/simd.log; exit 1; }; \
	trap - EXIT; \
	test -s /tmp/frontsim-serve-smoke/final.prom
	@echo "serve-smoke: coalescing, backpressure, byte-identity, and graceful drain verified"

# examples runs every example program but serveclient, which needs a
# running simd and runs in serve-smoke. Any non-zero exit fails the target:
# no Go test runs the examples, so a failure only they reach at run time,
# such as a type assertion on a run's prefetcher, shows here.
examples:
	for ex in quickstart scenarios asmdb_pipeline feedback_tuning fastiter prefetcher_compare; do \
		$(GO) run ./examples/$$ex > /dev/null || { echo "FAIL: examples/$$ex"; exit 1; }; \
	done
	@echo "examples: all six ran to completion"

# cover builds the coverage profile the CI gate ratchets on
# (.github/coverage-baseline.txt) and prints the total.
cover:
	$(GO) test -count=1 -coverprofile=/tmp/frontsim-cover.out -covermode=atomic ./internal/...
	$(GO) tool cover -func=/tmp/frontsim-cover.out | tail -1

check: fmt vet build examples lint-strict race audit suite-smoke mode-smoke serve-smoke
