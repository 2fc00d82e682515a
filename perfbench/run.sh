#!/usr/bin/env bash
# Builds the benchmark and the janusd daemon from the surrounding checkout,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, span files and recorded digests all
# live under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/janusd" janus/cmd/janusd) >&2
exec "$build/bin/perfbench" --janusd "$build/bin/janusd" --out "$build" "$@"
