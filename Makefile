# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build lint lint-strict test race audit vet check obs-smoke ff-smoke serve-smoke prefetch-smoke sampling-smoke cover

all: check

build:
	$(GO) build ./...

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

# obs-smoke proves observation is purely observational end to end: the
# same short run with and without -obs must print byte-identical JSON
# statistics, while the -obs run leaves a sample/event/metrics bundle.
obs-smoke:
	rm -rf /tmp/frontsim-obs-smoke && mkdir -p /tmp/frontsim-obs-smoke
	$(GO) run ./cmd/fesim -workload secret_srv12 -instrs 120000 -warmup 30000 -json > /tmp/frontsim-obs-smoke/off.json
	$(GO) run ./cmd/fesim -workload secret_srv12 -instrs 120000 -warmup 30000 -json \
		-obs -obs-dir /tmp/frontsim-obs-smoke/bundle -obs-stride 16 > /tmp/frontsim-obs-smoke/on.json
	cmp /tmp/frontsim-obs-smoke/off.json /tmp/frontsim-obs-smoke/on.json
	test -s /tmp/frontsim-obs-smoke/bundle/secret_srv12.samples.jsonl
	test -s /tmp/frontsim-obs-smoke/bundle/secret_srv12.metrics.json
	test -s /tmp/frontsim-obs-smoke/bundle/secret_srv12.metrics.prom
	@echo "obs-smoke: stats byte-identical with observation on/off"

# ff-smoke proves the event-driven fast path is invisible end to end:
# the same runs with -fast-forward on and off must print byte-identical
# JSON statistics, both for a single cell (conservative and FDP
# front-ends) and for a scaled-down experiment suite.
ff-smoke:
	rm -rf /tmp/frontsim-ff-smoke && mkdir -p /tmp/frontsim-ff-smoke
	$(GO) run ./cmd/fesim -workload secret_srv12 -instrs 120000 -warmup 30000 -json \
		-fast-forward=false > /tmp/frontsim-ff-smoke/fdp-off.json
	$(GO) run ./cmd/fesim -workload secret_srv12 -instrs 120000 -warmup 30000 -json \
		-fast-forward=true > /tmp/frontsim-ff-smoke/fdp-on.json
	cmp /tmp/frontsim-ff-smoke/fdp-off.json /tmp/frontsim-ff-smoke/fdp-on.json
	$(GO) run ./cmd/fesim -workload secret_srv12 -instrs 120000 -warmup 30000 -json \
		-ftq 2 -fast-forward=false > /tmp/frontsim-ff-smoke/cons-off.json
	$(GO) run ./cmd/fesim -workload secret_srv12 -instrs 120000 -warmup 30000 -json \
		-ftq 2 -fast-forward=true > /tmp/frontsim-ff-smoke/cons-on.json
	cmp /tmp/frontsim-ff-smoke/cons-off.json /tmp/frontsim-ff-smoke/cons-on.json
	$(GO) run ./cmd/experiments -n 2 -warmup 50000 -instrs 150000 -profile 200000 \
		-no-cache -fast-forward=false -quiet > /tmp/frontsim-ff-smoke/suite-off.txt
	$(GO) run ./cmd/experiments -n 2 -warmup 50000 -instrs 150000 -profile 200000 \
		-no-cache -fast-forward=true -quiet > /tmp/frontsim-ff-smoke/suite-on.txt
	diff /tmp/frontsim-ff-smoke/suite-off.txt /tmp/frontsim-ff-smoke/suite-on.txt
	@echo "ff-smoke: stats byte-identical with fast-forward on/off"

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

# prefetch-smoke proves the cross-prefetcher matrix end to end: the
# mechanism ablation (one cell per prefetch mechanism on one workload) run
# cold and then warm against the same run cache must print byte-identical
# tables — every mechanism's identity dimension round-trips through the
# cache, and a second identical invocation is pure hits.
prefetch-smoke:
	rm -rf /tmp/frontsim-prefetch-smoke && mkdir -p /tmp/frontsim-prefetch-smoke
	$(GO) build -o /tmp/frontsim-prefetch-smoke/experiments ./cmd/experiments
	/tmp/frontsim-prefetch-smoke/experiments -ablation mechanism -n 1 \
		-warmup 50000 -instrs 150000 -profile 200000 \
		-cache /tmp/frontsim-prefetch-smoke/cache -quiet \
		> /tmp/frontsim-prefetch-smoke/cold.txt
	/tmp/frontsim-prefetch-smoke/experiments -ablation mechanism -n 1 \
		-warmup 50000 -instrs 150000 -profile 200000 \
		-cache /tmp/frontsim-prefetch-smoke/cache -quiet \
		> /tmp/frontsim-prefetch-smoke/warm.txt
	diff /tmp/frontsim-prefetch-smoke/cold.txt /tmp/frontsim-prefetch-smoke/warm.txt
	@echo "prefetch-smoke: mechanism matrix byte-identical cold vs warm"

# sampling-smoke proves SMARTS sampling end to end: a sampled run must
# report a 95% confidence interval containing the exact run's IPC, be
# byte-stable across identical re-runs, and address run-cache entries
# disjoint from the exact run's — a warm exact cache serves a sampled
# suite nothing, and a warm sampled re-run adds nothing.
sampling-smoke:
	rm -rf /tmp/frontsim-sampling-smoke && mkdir -p /tmp/frontsim-sampling-smoke
	$(GO) build -o /tmp/frontsim-sampling-smoke/fesim ./cmd/fesim
	$(GO) build -o /tmp/frontsim-sampling-smoke/experiments ./cmd/experiments
	/tmp/frontsim-sampling-smoke/fesim -workload secret_srv12 -instrs 1500000 -warmup 200000 \
		> /tmp/frontsim-sampling-smoke/exact.txt
	/tmp/frontsim-sampling-smoke/fesim -workload secret_srv12 -instrs 1500000 -warmup 200000 \
		-sampling-interval 30000 -sampling-detail 3000 -sampling-warm 6000 \
		> /tmp/frontsim-sampling-smoke/sampled1.txt
	/tmp/frontsim-sampling-smoke/fesim -workload secret_srv12 -instrs 1500000 -warmup 200000 \
		-sampling-interval 30000 -sampling-detail 3000 -sampling-warm 6000 \
		> /tmp/frontsim-sampling-smoke/sampled2.txt
	cmp /tmp/frontsim-sampling-smoke/sampled1.txt /tmp/frontsim-sampling-smoke/sampled2.txt
	exact=$$(awk '$$1=="IPC" && $$2!="estimate" {print $$2; exit}' /tmp/frontsim-sampling-smoke/exact.txt); \
	awk -v exact="$$exact" '$$1=="IPC" && $$2=="estimate" { lo=$$4; hi=$$5; gsub(/[\[\],]/,"",lo); gsub(/[\[\],]/,"",hi); \
		if (exact+0 < lo+0 || exact+0 > hi+0) { printf "FAIL: exact IPC %s outside sampled 95%% CI [%s, %s]\n", exact, lo, hi; exit 1 } \
		printf "exact IPC %s inside sampled 95%% CI [%s, %s]\n", exact, lo, hi; found=1 } \
		END { if (!found) { print "FAIL: no IPC estimate line"; exit 1 } }' /tmp/frontsim-sampling-smoke/sampled1.txt
	/tmp/frontsim-sampling-smoke/experiments -ablation mechanism -n 1 \
		-warmup 50000 -instrs 150000 -profile 200000 \
		-cache /tmp/frontsim-sampling-smoke/cache -quiet \
		> /tmp/frontsim-sampling-smoke/exact-table.txt
	n1=$$(find /tmp/frontsim-sampling-smoke/cache -type f | wc -l); \
	/tmp/frontsim-sampling-smoke/experiments -ablation mechanism -n 1 \
		-warmup 50000 -instrs 150000 -profile 200000 \
		-sampling-interval 30000 -sampling-detail 3000 -sampling-warm 6000 \
		-cache /tmp/frontsim-sampling-smoke/cache -quiet \
		> /tmp/frontsim-sampling-smoke/sampled-table1.txt; \
	n2=$$(find /tmp/frontsim-sampling-smoke/cache -type f | wc -l); \
	test "$$n2" -gt "$$n1" || { echo "FAIL: sampled suite stored no new cache entries (shared with exact?)"; exit 1; }; \
	/tmp/frontsim-sampling-smoke/experiments -ablation mechanism -n 1 \
		-warmup 50000 -instrs 150000 -profile 200000 \
		-sampling-interval 30000 -sampling-detail 3000 -sampling-warm 6000 \
		-cache /tmp/frontsim-sampling-smoke/cache -quiet \
		> /tmp/frontsim-sampling-smoke/sampled-table2.txt; \
	n3=$$(find /tmp/frontsim-sampling-smoke/cache -type f | wc -l); \
	test "$$n3" -eq "$$n2" || { echo "FAIL: warm sampled re-run grew the cache"; exit 1; }
	diff /tmp/frontsim-sampling-smoke/sampled-table1.txt /tmp/frontsim-sampling-smoke/sampled-table2.txt
	grep -q '±' /tmp/frontsim-sampling-smoke/sampled-table1.txt
	! grep -q '±' /tmp/frontsim-sampling-smoke/exact-table.txt
	@echo "sampling-smoke: CI containment, cache disjointness, and byte-stable re-runs verified"

# cover builds the coverage profile the CI gate ratchets on
# (.github/coverage-baseline.txt) and prints the total.
cover:
	$(GO) test -count=1 -coverprofile=/tmp/frontsim-cover.out -covermode=atomic ./internal/...
	$(GO) tool cover -func=/tmp/frontsim-cover.out | tail -1

check: vet build lint-strict race audit obs-smoke ff-smoke serve-smoke prefetch-smoke sampling-smoke
