#!/usr/bin/env bash
# Entry point of the reference benchmark (BENCHMARK.json "command"): builds
# rbacd and adminbench from source into .bench_build/ at the root of the
# checkout — builds are not timed — and runs adminbench with the given
# arguments. Everything the benchmark writes stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Without the program there is nothing to measure: say so before any tool
# is started.
if [[ ! -f go.mod || ! -d cmd/rbacd ]]; then
	echo "bench/run.sh: $root holds no rbacd source (go.mod, cmd/rbacd): nothing to build" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
# Keep the go command's own state (env file, telemetry) inside the checkout,
# and telemetry off: in a fresh configuration directory the go command
# otherwise forks a detached upload child that outlives this script.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bin/rbacd" ./cmd/rbacd
go build -C bench -o "$build/bin/adminbench" ./cmd/adminbench
exec "$build/bin/adminbench" -rbacd "$build/bin/rbacd" -work "$build/work" "$@"
