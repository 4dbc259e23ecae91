#!/usr/bin/env bash
# Builds paperrepro and the benchmark from source inside the checkout and
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload report --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact (Go build cache, binaries, scratch stores,
# profiles, result files) stays under the build directory in the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp" "$build/bin"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/bin/paperrepro" ./cmd/paperrepro >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin/paperrepro" -work "$build/perfbench" "$@"
