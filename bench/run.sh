#!/usr/bin/env bash
# The one command of the benchmark of record. It builds cmd/robustqo and
# this directory's harness from source into .bench_build/ and hands its
# arguments to the harness:
#
#   bash bench/run.sh                          all workloads, untraced then traced
#   bash bench/run.sh --aa                     the untraced set twice, compared
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Everything it writes stays
# under .bench_build/ and bench/out/.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/bin" "$build/tmp"
build="$(cd "$build" && pwd)"

# Keep everything the toolchain writes inside the checkout too, and make
# it use the installed toolchain rather than fetch the one go.mod names.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local

go build -o "$build/bin/robustqo" ./cmd/robustqo
go build -o "$build/bin/bench" ./bench

# exec: signals reach the harness, which stops and reaps the server it
# starts on every way out.
exec "$build/bin/bench" --bin "$build/bin/robustqo" "$@"
