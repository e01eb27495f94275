#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# Everything the build writes — binary, Go build cache — stays inside the
# checkout. Exits non-zero without running anything when the rest of the
# repository (the module bench/go.mod replaces "streamapprox" with) is
# not there to build against.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
