# Repo verification targets. `make check` is the CI gate: it builds, vets,
# checks formatting, asserts the dependency cone and the size budget, runs the
# full test suite (and compiles + tests the frozen reference benchmark under
# bench/ against the program), one race-detector pass over the whole tree, a short run of
# every root benchmark, and a 4-second correctness smoke of each reference
# workload against real daemons. The CI workflow runs the same pieces as a
# job matrix (build-test / race / bench-gate / lint).

GO ?= go

.PHONY: check build vet fmt-check cone test bench-compat race bench-smoke workload-smoke bench fuzz-smoke

check: build vet fmt-check cone test bench-compat race bench-smoke workload-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt must be a no-op on the whole tree (mirrors the CI lint job, which
# additionally runs staticcheck — not baked into this container image).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The dependency cone and the size budgets, by machine (ROADMAP item 1): the
# daemon links none of the experiment, analysis or test-support packages, the
# two CLIs none of the serving stack, the non-test Go rbacd links stays under
# its ratcheting bar, and non-test Go outside bench/ within 22 000 lines.
cone:
	sh scripts/cone.sh

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

# Every root benchmark still compiles and runs.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=10x .

# Each reference workload for 4 seconds against real rbacd processes: every
# response is checked against its generator-known verdict, so any wrong,
# stale, shed or dropped answer exits non-zero. Correctness only — timing is
# compared parent-vs-change (bench/README.md), never gated on a shared box.
workload-smoke:
	for w in wire_point_reads http_follower_mixed wire_write_heavy wire_bulk_cold; do \
		bash bench/run.sh -workload $$w -seconds 4 -trace 0 || exit 1; \
	done

# Short local run of the nightly fuzz targets (see .github/workflows/fuzz.yml).
fuzz-smoke:
	$(GO) test ./internal/command/ -fuzz FuzzCommandFingerprint -fuzztime 10s
	$(GO) test ./internal/storage/ -fuzz FuzzWALDecode -fuzztime 10s
	$(GO) test ./internal/wire/ -fuzz FuzzWireDecode -fuzztime 10s

# Full benchmark sweep (slow).
bench:
	$(GO) test -run XXX -bench . -benchmem .
