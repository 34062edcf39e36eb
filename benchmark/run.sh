#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the toolchain writes
# (build cache, telemetry, the binary) stays under .bench_build in the
# checkout; the harness itself writes only benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C "$here" build -o "$build/inca-benchmark" .
exec "$build/inca-benchmark" -out "$here/out" "$@"
