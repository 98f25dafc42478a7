#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash usaasbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# The build cache, module cache and Go's own config and telemetry files all
# stay inside the checkout, under .bench_build/. The benchmark's data
# directories go under the working directory and are removed when it
# exits.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/usaasbench" && go build -o "$out/usaasbench" .)
exec "$out/usaasbench" "$@"
