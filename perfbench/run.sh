#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload vga-stream --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temporary files) and every trace file stays under .bench_build/
# in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
