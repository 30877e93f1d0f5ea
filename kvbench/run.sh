#!/usr/bin/env bash
# Builds the kvbench binary from the checkout it is run in and executes
# it with the given arguments. Run from the repository root:
#
#	bash kvbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#	bash kvbench/run.sh compare base/ new/
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/kvbench" && go build -o "$build/kvbench" .)
exec "$build/kvbench" "$@"
