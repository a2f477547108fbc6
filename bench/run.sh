#!/usr/bin/env bash
# run.sh — build the benchmark and run it with the given arguments.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload suite-exact --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh set -out .bench_build/set.json
#   bash bench/run.sh compare A.json B.json
#   bash bench/run.sh -regen
#
# Everything the build and the run write stays under .bench_build in the
# current directory, or under $CARGO_TARGET_DIR when that is set: the Go
# build cache, the binary, temporary files, the HTTP workload's stores and
# the span files.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$out/cachedse-bench" .
exec "$out/cachedse-bench" -workdir "$out" "$@"
