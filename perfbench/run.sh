#!/usr/bin/env bash
# Builds the benchmark and the tenderserve binary from source, then runs
# the benchmark with every argument passed through. Run it from the root
# of the repository:
#
#   bash perfbench/run.sh --workload decode-batch --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the Go tool's own state all live
# under .bench_build/ in the repository root, so the run touches nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/tenderserve" tender/cmd/tenderserve
)
exec "$out/perfbench" -root "$root" "$@"
