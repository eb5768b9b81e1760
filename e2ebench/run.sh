#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload serve-warm --seed 42 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, generated datasets)
# stays under .bench_build/ in the working directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/home/go" GOMODCACHE="$build/home/go/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
