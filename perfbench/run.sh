#!/usr/bin/env bash
# Builds the benchmark harness, funseekerd and funseeker-lb from this
# checkout into .bench_build/, then runs the harness with the given
# arguments, e.g.:
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Every file it writes, the Go
# build cache included, stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$build/bin"
go build -o "$build/bin/funseekerd" ./cmd/funseekerd
go build -o "$build/bin/funseeker-lb" ./cmd/funseeker-lb
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
