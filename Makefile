# Repo verification targets. `make check` is the CI gate: it builds, vets,
# checks formatting, runs the full test suite (and compiles + tests the
# frozen reference benchmark under bench/ against the program), one
# race-detector pass over the whole tree, and a short smoke of the hot-path
# benchmarks so perf regressions fail fast. The CI workflow runs the same
# pieces as a job matrix (build-test / race / bench-gate / lint).

GO ?= go

.PHONY: check build vet fmt-check test bench-compat race bench-smoke serve-smoke overload-smoke bench-json bench benchdiff fuzz-smoke

check: build vet fmt-check test bench-compat race bench-smoke serve-smoke overload-smoke benchdiff

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must be a no-op on the whole tree (mirrors the CI lint job, which
# additionally runs staticcheck — not baked into this container image).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# bench/ is its own module compiled against this one (its ladder imports
# internal/*): a change that breaks the benchmark's build fails here, before
# the benchmark gate does.
bench-compat:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# One race pass over the whole tree — nobody has to remember to list a new
# package. It covers the concurrent stack (engine, tenant registry, request
# core, both transports, replication) and the failure paths: the daemon
# chaos e2es (SIGKILL the primary under load, promote, assert zero
# acknowledged-write loss and fencing of the resurrected ex-primary; the
# 3-primary sharded-cluster e2e with live migration) and the storage layer
# under seeded write/torn-write/fsync fault schedules.
race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run XXX -bench 'Incremental|CachedAuthorize|AuthorizeAllocs|ReplicatedAuthorize|AccessCheck' -benchtime=100x .

# Bounded open-loop socket smoke: stands up an in-process rbacd (group-commit
# fsync on) behind a real loopback listener, offers a few seconds of mixed
# load over HTTP and then over the binary wire protocol, and fails on any op
# error, 409 or drop in either pass.
serve-smoke:
	$(GO) run ./cmd/rbacbench -serve -wire -serve-rate 300 -serve-duration 3s

# Saturation smoke: steady baseline, then 3x that rate against an
# admission-limited stack with fault-stalled fsyncs; fails unless the
# degradation contract holds (shed with 429/503 + Retry-After, admitted p99
# bounded, client/server shed accounting reconciled, zero acked writes lost).
overload-smoke:
	$(GO) run ./cmd/rbacbench -serve -overload -serve-duration 3s

# Regression gate: authorize benchmarks vs the newest committed BENCH_*.json
# baseline, selected by highest numeric suffix (>25% ns/op or any allocs/op
# increase fails).
benchdiff:
	scripts/benchdiff.sh

# Short local run of the nightly fuzz targets (see .github/workflows/fuzz.yml).
fuzz-smoke:
	$(GO) test ./internal/command/ -fuzz FuzzCommandFingerprint -fuzztime 10s
	$(GO) test ./internal/storage/ -fuzz FuzzWALDecode -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzWireDecode -fuzztime 10s

# Full benchmark sweep (slow).
bench:
	$(GO) test -run XXX -bench . -benchmem .

# Machine-readable perf trajectory, consumed across PRs. The default output
# is one past the newest committed BENCH_<n>.json (numeric suffix, so
# BENCH_10 sorts after BENCH_2); override with BENCH_JSON=..., or narrow the
# run with BENCH_FILTER=substring.
LATEST_BENCH := $(shell ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1)
BENCH_JSON ?= BENCH_$(shell expr $(LATEST_BENCH) + 1 2>/dev/null || echo 1).json
BENCH_FILTER ?=
bench-json:
	$(GO) run ./cmd/rbacbench -benchjson $(BENCH_JSON) -benchfilter '$(BENCH_FILTER)'
