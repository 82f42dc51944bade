#!/bin/sh
# Local one-shot gate without make: build + fmt + vet + tests (the program's
# and, against it, the frozen reference benchmark's under bench/) + one race
# pass over the whole tree (the concurrent stack, the daemon chaos e2es and
# storage fault injection included) + a short hot-path benchmark smoke + a bounded serve-mode
# smoke (open-loop socket load against a live in-process rbacd, HTTP and
# binary wire passes; fails on any op error) + the overload saturation smoke (3x an admission-limited
# stack's capacity; fails unless the degradation contract holds), then the
# benchdiff gate comparing the authorize and serving
# benchmarks against the newest committed BENCH_*.json baseline. Mirrors `make check`; CI runs the same pieces as a
# job matrix (see .github/workflows/ci.yml).
set -eux

cd "$(dirname "$0")/.."

go build ./...
test -z "$(gofmt -l .)"
go vet ./...
go test ./...
go vet -C bench ./...
go test -C bench ./...
go test -race ./...
go test -run XXX -bench 'Incremental|BatchVsSingle|CachedAuthorize|AuthorizeAllocs|ReplicatedAuthorize|AccessCheck' -benchtime=100x .
go run ./cmd/rbacbench -serve -wire -serve-rate 300 -serve-duration 3s
go run ./cmd/rbacbench -serve -overload -serve-duration 3s
scripts/benchdiff.sh
