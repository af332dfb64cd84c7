#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload lubm-read --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the build and the runs
# write stays under the build directory ($CARGO_TARGET_DIR, or .bench_build),
# and the Go toolchain is kept off the network.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
