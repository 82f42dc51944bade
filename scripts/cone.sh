#!/bin/sh
# ROADMAP item 1 by machine, for `make cone`, scripts/check.sh and the CI lint
# job alike: the dependency cone (the daemon links none of the experiment,
# analysis or test-support packages, and the two CLIs none of the serving
# stack) and two size budgets — the non-test Go of the module packages
# rbacd links, whose bar only ever moves down, and the non-test Go outside
# bench/, at or below 22 000 lines.
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

cone_bar=16622
cone=$(go list -deps -f '{{if .Module}}{{if eq .Module.Path "adminrefine"}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}{{end}}' ./cmd/rbacd | xargs cat | wc -l)
if [ "$cone" -gt "$cone_bar" ]; then
    echo "size: $cone lines of non-test Go in rbacd's cone, bar $cone_bar" >&2
    exit 1
fi
echo "size: $cone of $cone_bar lines of non-test Go in rbacd's cone"

budget=22000
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -exec cat {} + | wc -l)
if [ "$lines" -gt "$budget" ]; then
    echo "size: $lines lines of non-test Go outside bench/, budget $budget" >&2
    exit 1
fi
echo "size: $lines of $budget lines of non-test Go outside bench/"
