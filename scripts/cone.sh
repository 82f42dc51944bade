#!/bin/sh
# ROADMAP item 1 by machine, for `make cone`, scripts/check.sh and the CI lint
# job alike: the dependency cone (the daemon links none of the experiment,
# analysis or test-support packages, and the two CLIs none of the serving
# stack) and the size budget (non-test Go outside bench/ stays at or below
# 22 000 lines).
set -eu

cd "$(dirname "$0")/.."

if go list -deps ./cmd/rbacd | grep -E '^adminrefine/internal/(cli|workload|monitor|hru|arbac|scope|domains|analysis|fault)$'; then
    echo "cone: rbacd links the packages above" >&2
    exit 1
fi
if go list -deps ./cmd/rbacctl ./cmd/rbacbench | grep -E '^adminrefine/internal/(server|wire|service|tenant|replication|admission|placement)$'; then
    echo "cone: a CLI links the serving packages above" >&2
    exit 1
fi

budget=22000
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -exec cat {} + | wc -l)
if [ "$lines" -gt "$budget" ]; then
    echo "size: $lines lines of non-test Go outside bench/, budget $budget" >&2
    exit 1
fi
echo "size: $lines of $budget lines of non-test Go outside bench/"
