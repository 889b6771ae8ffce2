#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g. from the repository root:
#
#   bash bench/run.sh --workload scan-mem --seed 1 --seconds 8 --trace 0
#
# The build, its cache and the Go toolchain's own state all stay under
# .bench_build/ at the repository root; the build never uses the network.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=
export GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/numacs-bench" .)
exec "$out/numacs-bench" "$@"
