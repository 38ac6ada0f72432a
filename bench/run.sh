#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the binary, the go build cache, temp files, stores and journals.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
