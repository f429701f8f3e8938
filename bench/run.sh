#!/usr/bin/env bash
# Builds protest and the benchmark from source into .bench_build/ and
# runs the benchmark.  Run it from the repository root; arguments go to
# the benchmark, e.g.
#
#   bash bench/run.sh -workload pipeline-sim -seed 1 -seconds 45 -trace 0
#
# The Go build cache, temporary files and toolchain settings all stay
# under .bench_build/, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/protest" ]]; then
	echo "bench/run.sh: no protest sources in $root; run it from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# Telemetry off: otherwise each go command may fork a detached telemetry
# process that outlives this script.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/protest" ./cmd/protest
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -protest "$build/protest" "$@"
