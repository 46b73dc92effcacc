#!/usr/bin/env bash
# Builds perfbench from the source in this checkout, then runs it from
# the checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload crawl-wire --seed 42 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, module cache, temporary files and home directory
# live under .bench_build, span logs and CPU profiles under
# perfbench/out. The
# first build compiles the standard library into that cache; later
# builds reuse it. perfbench is its own Go module (perfbench/go.mod)
# that points at the repository module one directory up, so it builds
# only inside a full checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
