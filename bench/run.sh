#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build leaves behind (binary, Go build cache, Go's scratch
# directory and telemetry counters) goes under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
  cd "$root/bench"
  GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
    go build -o "$build/rapid-bench" .
)
cd "$root"
exec "$build/rapid-bench" "$@"
