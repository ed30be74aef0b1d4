#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the binary, scratch files and the
# run records. The benchmark module imports the repository's packages
# through a replace directive, so outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
