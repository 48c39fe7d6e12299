GO ?= go

# Pinned staticcheck version, matching .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build vet staticcheck test race docs-lint perfbench-check check ci

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs staticcheck when the tool is on PATH; CI installs the pinned version,
# locally it is optional (no network fetch from a bare `make check`).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

# Documentation gate: relative links in the top-level docs must resolve,
# and every internal/* package must carry a non-empty doc.go.
docs-lint:
	sh scripts/docs-lint.sh

# Race-focused pass over the concurrency-heavy packages: the RPC transport,
# the distributed control plane (including the chaos tests), the fleet
# coordinator, the budget arbiter (chaos property tests), the stage engine,
# the telemetry subsystem (ring buffers + registry under concurrent writers),
# the decision engine + statistics pipeline, the decision-trace recorder and
# replay arena, the multi-tenant harness, and the distributed benchmark
# harness.
race:
	$(GO) test -race ./internal/rpc/... ./internal/dist/... ./internal/fleet/... ./internal/arbiter/... ./internal/stage/... ./internal/telemetry/... ./internal/core/... ./internal/stats/... ./internal/replay/... ./internal/controlplane/... ./internal/live/... ./internal/benchnet/... ./internal/harness/...

# The repository benchmark is its own module (perfbench/go.mod replaces
# powerchief with ..), so `go build ./...` above never compiles it. Vet and
# test it here, so an API change it wraps breaks this target.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The fleet chaos smoke: a coordinator over three proxied node services,
# kill one mid-run, assert Σ granted ≤ budget at every epoch plus reclaim
# and re-admission. Exits non-zero on any violation.
.PHONY: fleet-smoke
fleet-smoke:
	$(GO) run ./examples/fleet

# The distributed benchmark smoke: spawn 4 local agent processes, fan one
# sharded schedule out over real RPC against a shared dist deployment, and
# merge the per-agent histograms into bench-net.json. The spec must match
# results/BENCH_benchnet.json exactly, or bench-cmp refuses the comparison.
.PHONY: bench-net bench-cmp
bench-net:
	$(GO) run ./cmd/powerbench -agents.spawn 4 -target dist -app websearch \
		-instances 2,1 -timescale 0.3 -arrivals constant -rate 20 \
		-duration 4s -warmup 500ms -workers 8 -seed 11 -json bench-net.json

# The benchmark regression gate: compare the fresh distributed run against
# the checked-in baseline. Thresholds are loose — the gate catches structural
# regressions (a broken merge, a stalled shard, a latency cliff), not
# scheduler jitter. Exits 1 on regression, 2 if the runs are incomparable.
bench-cmp: bench-net
	$(GO) run ./cmd/powerbench cmp -max.qps.drop 25 -max.p50 150 \
		-max.p99 200 -max.p999 250 results/BENCH_benchnet.json bench-net.json

# The multi-tenant arbitration smoke: run the deterministic two-app DES
# scenario twice (static halving vs the cross-app arbiter) and gate the
# fresh figures against the checked-in artifact — Σ per-tenant grants must
# stay under the chip budget at every epoch and arbitration must still beat
# the static split on combined p99. Exits 1 on regression, 2 if incomparable.
.PHONY: bench-tenant
bench-tenant:
	$(GO) run ./cmd/powerbench tenant -check results/BENCH_multitenant.json

# The arbitration-strategy benchmark gate: re-run the skewed-bottleneck
# fleet scenario (Marginal vs Proportional) and compare against the
# checked-in artifact — params must match exactly, the boostable-tail win
# must hold within tolerance. Exits 1 on regression, 2 if incomparable.
.PHONY: bench-arbiter
bench-arbiter:
	$(GO) run ./cmd/powerbench arbiter -json bench-arbiter.json
	$(GO) run ./cmd/powerbench cmp results/BENCH_arbiter.json bench-arbiter.json

# The decision-trace replay smoke: record a short DES trace under
# PowerChief, then replay it through the offline arena against three
# candidate policies. `powerbench replay` exits 1 unless the recording
# policy reproduces every recorded plan byte-identically from the
# snapshots alone — the determinism gate of DESIGN.md §5l.
.PHONY: bench-replay
bench-replay:
	$(GO) run ./cmd/powerbench -target des -app sirius -rate 3 -duration 120s \
		-warmup 10s -policy powerchief -ctl.interval 25s -seed 7 \
		-trace.out bench-replay-trace.jsonl.gz
	$(GO) run ./cmd/powerbench replay -trace bench-replay-trace.jsonl.gz \
		-policy powerchief,fairness,marginal -json bench-replay.json

# The full local gate: what CI runs.
check: vet staticcheck build test race perfbench-check docs-lint

ci: check
