#!/bin/sh
# Local one-shot gate without make: build + fmt + vet + the dependency-cone
# and size-budget assertions + tests (the program's and, against it, the frozen reference
# benchmark's under bench/) + one race pass over the whole tree (the
# concurrent stack, the daemon chaos e2es and storage fault injection
# included) + a short run of every root benchmark + a 4-second correctness
# smoke of each reference workload against real rbacd processes (every
# response checked against its generator-known verdict; no timing gate).
# Mirrors `make check`; CI runs the same pieces as a job matrix (see
# .github/workflows/ci.yml).
set -eux

cd "$(dirname "$0")/.."

go build ./...
test -z "$(gofmt -l .)"
go vet ./...
# The dependency cone, rbacd's line bar and the 22 000-line size budget.
sh scripts/cone.sh
go test ./...
go vet -C bench ./...
go test -C bench ./...
go test -race ./...
go test -run XXX -bench . -benchtime=10x .
for w in wire_point_reads http_follower_mixed wire_write_heavy wire_bulk_cold; do
    bash bench/run.sh -workload "$w" -seconds 4 -trace 0
done
