#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything go writes (build cache, temp files, the
# binary) stays inside the checkout; arguments pass through to the binary:
#
#   bash bench/run.sh --workload serve_unique --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/bench" && go build -o "$build/percival-bench" .)
cd "$root"
# one P from process start, so package initialisers size their pools for it
export GOMAXPROCS=1
exec "$build/percival-bench" "$@"
