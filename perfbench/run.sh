#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's temporary files (stores, span files) all stay under
# ${CARGO_TARGET_DIR:-.bench_build}, so the run writes nothing outside the
# checkout. Run from a directory without the repository's sources next to
# perfbench/, the build fails and the script exits non-zero before
# printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/perfbench"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench-bin" .
exec "$out/perfbench-bin" --workdir "$out/perfbench" "$@"
