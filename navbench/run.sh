#!/usr/bin/env bash
# Builds the navaug benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash navbench/run.sh --workload paper|sweep|serve --seed N --seconds S --trace 0|1
#
# Every build artefact (binary, Go build cache, the go command's own
# config and telemetry files) goes to .bench_build/ under the current
# directory, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0
mkdir -p "$out"
(cd "$(dirname "$0")" && go build -trimpath -o "$out/navbench" .)
exec "$out/navbench" "$@"
